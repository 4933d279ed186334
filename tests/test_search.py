"""The numerical search: monomial structure, gradient, descent, exactify."""

import copy
import itertools
import json
import math
import re
import sys
import warnings
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import weight_bits
from ghzgraphs import (
    DEFAULT_EPSILON,
    Edge,
    Exactification,
    GaussianRational,
    GhzGraphError,
    Multigraph,
    SearchProblem,
    assignment_graph,
    complete_ghz_k4,
    cycle_ghz,
    cycle_ghz_on,
    enumerate_perfect_matchings,
    exactify,
    gradient,
    induced_colouring,
    octahedron,
    parallel_ghz_k2,
    residual,
    search,
    skeleton,
    verify,
)
from ghzgraphs.errors import ConnectivityBoundError
from ghzgraphs.search import (
    _check_weights,
    _coloured_graph,
    _evaluate,
    _refutes,
)


def k4_solution_vector(problem):
    """Pack the canonical K4 weights into the search's variable layout."""
    x = np.zeros(problem.n_vars, dtype=np.complex128)
    colour_of = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
    for e, pair in enumerate(problem.pairs):
        c = colour_of[pair]
        x[problem.variable_index(e, c, c)] = 1.0
    return x


def test_problem_structure_for_k2():
    prob = SearchProblem(parallel_ghz_k2(1), 3)
    assert prob.n_vars == 9  # one skeleton edge, 3x3 colour pairs
    assert prob.monomials.shape == (9, 1)
    assert len(prob.colourings) == 9
    assert prob.colourings[:3] == ((0, 0), (1, 1), (2, 2))  # monos first
    assert list(prob.targets[:3]) == [1, 1, 1]
    assert set(prob.targets[3:]) == {0}


def test_problem_counts_for_k4():
    prob = SearchProblem(complete_ghz_k4(), 2)
    assert prob.n_vars == 6 * 4
    # 3 pairings, each choosing one of 4 parallel variables per edge pair
    assert prob.monomials.shape == (3 * 16, 2)


@pytest.mark.parametrize("d", [2.5, 2.0, True, False, "2", None])
def test_problem_refuses_a_dimension_that_is_not_an_int(d):
    with pytest.raises(ValueError, match="dimension must be an int"):
        SearchProblem(parallel_ghz_k2(1), d)


def test_variable_index_bounds():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    assert prob.variable_index(0, 1, 0) == 2
    with pytest.raises(ValueError):
        prob.variable_index(1, 0, 0)
    with pytest.raises(ValueError):
        prob.variable_index(0, 2, 0)


@pytest.mark.parametrize("args, name, bad", [
    ((0, 0.5, 0), "colour", 0.5), ((1.5, 0, 0), "pair index", 1.5), ((0, 1, True), "colour", True),
    ((True, 0, 0), "pair index", True), ((0, 1.0, 0), "colour", 1.0), ((0, 0, "1"), "colour", "1"),
    ((np.int64(1), 0, 0), None, None), ((None, 0, 0), "pair index", None),
], ids=["p=0.5", "pair=1.5", "q=True", "pair=True", "p=1.0", "q='1'", "pair=int64", "pair=None"])
def test_variable_index_refuses_indices_that_are_not_ints(args, name, bad):
    """Every case is refused but ``pair=int64``: a numpy integer is an int,
    read as a plain one."""
    prob = SearchProblem(cycle_ghz(4), 2)
    if name is None:
        index = prob.variable_index(*args)
        assert (index, index.__class__) == (4, int)
    else:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            prob.variable_index(*args)
    assert prob.variable_index(1, 1, 0) == 6


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_problem_reads_numpy_integers_as_ints(numpy_int):
    prob = SearchProblem(cycle_ghz(4), numpy_int(2))
    assert (prob.d, prob.d.__class__) == (2, int)
    assert np.array_equal(prob.monomials, SearchProblem(cycle_ghz(4), 2).monomials)
    index = prob.variable_index(numpy_int(1), numpy_int(1), numpy_int(0))
    assert (index, index.__class__) == (6, int)


def test_residual_vanishes_at_the_planted_solution():
    prob = SearchProblem(complete_ghz_k4(), 3)
    x = k4_solution_vector(prob)
    r = residual(prob, x)
    assert r.value == 0.0
    assert all(v == 0.0 for v in r.per_colouring.values())
    g = gradient(prob, x)
    assert np.allclose(g, 0.0)


def test_residual_splits_by_colouring():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    x = np.zeros(4, dtype=np.complex128)  # everything zero: monos miss by 1
    r = residual(prob, x)
    assert r.value == pytest.approx(2.0)
    assert r.per_colouring[(0, 0)] == pytest.approx(1.0)
    assert r.per_colouring[(1, 1)] == pytest.approx(1.0)


def test_gradient_matches_finite_differences():
    prob = SearchProblem(cycle_ghz(6), 2)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars)
    x *= 0.5
    g = gradient(prob, x)
    h = 1e-6
    fd = np.zeros_like(g)
    for k in range(prob.n_vars):
        for part in (1.0, 1j):
            xp = x.copy()
            xp[k] += part * h
            xm = x.copy()
            xm[k] -= part * h
            d = (residual(prob, xp).value - residual(prob, xm).value) / (2 * h)
            fd[k] += part * d
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_search_is_deterministic():
    prob = SearchProblem(parallel_ghz_k2(2), 2)
    a = search(prob, seed=3, restarts=3, max_iters=200)
    b = search(prob, seed=3, restarts=3, max_iters=200)
    assert np.array_equal(a.weights, b.weights)
    assert a.residual.value == b.residual.value
    assert a.restart == b.restart and a.iterations == b.iterations


def test_search_needs_a_restart():
    prob = SearchProblem(parallel_ghz_k2(1), 1)
    with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
        search(prob, restarts=0)


def test_search_rejects_a_negative_iteration_budget():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    with pytest.raises(ValueError, match="max_iters"):
        search(prob, max_iters=-5)
    assert search(prob, max_iters=0).iterations == 0


@pytest.mark.parametrize("name, value", [
    ("restarts", 2.5), ("restarts", True), ("restarts", "3"),
    ("max_iters", 3.5), ("max_iters", False), ("seed", 1.0), ("seed", True),
])
def test_search_refuses_budgets_and_seeds_that_are_not_ints(name, value):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    with pytest.raises(ValueError, match=f"{name} must be an int, got {value!r}"):
        search(prob, **{name: value})


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_search_reads_numpy_budgets_and_seeds_as_ints(numpy_int):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    want = search(prob, seed=3, restarts=2, max_iters=4)
    got = search(prob, seed=numpy_int(3), restarts=numpy_int(2), max_iters=numpy_int(4))
    assert (got.restart, got.iterations, got.converged) == (want.restart, want.iterations, want.converged)
    assert got.weights.tobytes() == want.weights.tobytes()


def test_search_refuses_a_negative_seed():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        search(prob, seed=-1)
    assert search(prob, seed=0, restarts=1, max_iters=5).restart == 0


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
def test_search_rejects_a_tolerance_below_0_or_nan(tol):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    with pytest.raises(ValueError, match="tol"):
        search(prob, tol=tol)
    assert search(prob, max_iters=5, tol=0.0).iterations == 5


@pytest.mark.parametrize("tol", [True, False, "1e-3", None, 1e-3j, [1e-3], np.bool_(True)])
def test_search_refuses_a_tolerance_that_is_not_a_real_number(tol):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    with pytest.raises(ValueError, match=re.escape(f"tol must be a non-negative number, got {tol!r}")):
        search(prob, tol=tol)


@pytest.mark.parametrize("tol", [0, 1, np.float64(1e-10), np.float32(1e-3), np.int64(0)])
def test_search_takes_ints_and_numpy_reals_as_a_tolerance(tol):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    res = search(prob, seed=2, restarts=1, max_iters=50, tol=tol)
    assert res.converged == (res.residual.value <= tol)


@pytest.mark.parametrize("tol", [1e-3, np.float64(1e-3), np.float32(1e-3), np.int64(0), np.array(1e-3)],
                         ids=["float", "float64", "float32", "int64", "0-d array"])
def test_converged_is_a_plain_bool(tol):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    res = search(prob, seed=2, restarts=1, max_iters=50, tol=tol)
    assert type(res.converged) is bool
    assert json.dumps(res.converged) in ("true", "false")


@pytest.mark.parametrize("value, accepted", [
    (Decimal("1e-3"), True), (Fraction(1, 1000), True), (np.array(1e-3), True), (np.float32(1e-3), True),
    (np.array([1e-3]), False), (np.array([[0.0]]), False), (Decimal("NaN"), False), (np.array(True), False),
    (-1.0, False), ("abc", False),
], ids=["Decimal", "Fraction", "0-d array", "float32", "array of one", "1x1 array", "decimal NaN", "0-d bool",
        "negative", "str"])
def test_verify_and_search_read_a_tolerance_by_one_rule(value, accepted):
    # verify's and exactify's epsilon and search's tol: a number with no
    # dimensions, at least 0; exactify reads it even where its exact path
    # certifies, as at K4's planted point, and never uses it
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    k4 = SearchProblem(complete_ghz_k4(), 3)
    x = k4_solution_vector(k4)
    g = assignment_graph(k4, x)  # GHZ, with float weights
    if accepted:
        assert verify(g, value).is_ghz
        assert exactify(k4, x, value).mode == "exact"
        res = search(prob, seed=2, restarts=1, max_iters=50, tol=value)
        assert res.converged == (res.residual.value <= value)
        return
    refused = re.escape(f" must be a non-negative number, got {value!r}")
    with pytest.raises(ValueError, match="epsilon" + refused):
        verify(g, value)
    with pytest.raises(ValueError, match="tol" + refused):
        search(prob, tol=value)
    with pytest.raises(ValueError, match="epsilon" + refused):
        exactify(k4, x, value)


def test_search_converges_on_small_problems():
    for g, d in [(parallel_ghz_k2(1), 2), (cycle_ghz(6), 2)]:
        prob = SearchProblem(g, d)
        res = search(prob, seed=0, restarts=10, max_iters=2000)
        assert res.converged
        assert res.residual.value < 1e-9
        assert verify(assignment_graph(prob, res.weights), epsilon=1e-4).is_ghz


def test_exactify_certifies_near_rational_points():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    x = np.zeros(4, dtype=np.complex128)
    x[prob.variable_index(0, 0, 0)] = 1.0 + 3e-12
    x[prob.variable_index(0, 1, 1)] = 1.0 - 2e-13j
    cert = exactify(prob, x)
    assert cert.mode == "exact"
    assert cert.epsilon == 0.0
    assert cert.graph.is_exact
    assert cert.verdict.is_ghz and cert.verdict.dimension == 2


def test_exactify_falls_back_to_numeric():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    x = np.zeros(4, dtype=np.complex128)
    x[prob.variable_index(0, 0, 0)] = 1.0 + 2e-5   # too far from any target
    x[prob.variable_index(0, 1, 1)] = 1.0
    cert = exactify(prob, x)
    assert cert.mode == "numeric"
    assert not cert.graph.is_exact
    assert cert.epsilon >= 2e-5  # tolerance stretches with the residual
    assert cert.verdict.is_ghz


@pytest.mark.parametrize("epsilon, is_ghz", [(1e-9, False), (1e-3, True)])
def test_exactify_gives_a_numeric_verdict_at_the_epsilon_it_is_given(epsilon, is_ghz):
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    x = np.zeros(4, dtype=np.complex128)
    x[prob.variable_index(0, 0, 0)] = 1.0 + 2e-5   # too far from any target
    x[prob.variable_index(0, 1, 1)] = 1.0
    cert = exactify(prob, x, epsilon=epsilon)
    assert cert.mode == "numeric"
    assert cert.epsilon == epsilon
    assert cert.verdict == verify(assignment_graph(prob, x), epsilon)
    assert cert.verdict.is_ghz is is_ghz


def test_exactify_after_a_tight_search_is_exact():
    prob = SearchProblem(parallel_ghz_k2(5), 5)
    res = search(prob, seed=0, restarts=5, max_iters=20000, tol=1e-24)
    cert = exactify(prob, res.weights)
    assert cert.mode == "exact"
    assert cert.verdict.is_ghz and cert.verdict.dimension == 5
    # the unique solution: the identity weight matrix
    nonzero = {
        (e.cu, e.cv) for e in cert.graph.edges if e.weight != 0
    }
    assert nonzero == {(c, c) for c in range(5)}


def test_assignment_graph_layout():
    prob = SearchProblem(parallel_ghz_k2(1), 2)
    x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
    g = assignment_graph(prob, x)
    assert not g.is_exact
    assert [(e.cu, e.cv, e.weight) for e in g.edges] == [
        (0, 0, 1 + 0j), (0, 1, 2 + 0j), (1, 0, 3 + 0j), (1, 1, 4 + 0j),
    ]


# ---------------------------------------------------------------------------
# The problem and its evaluation as they were before the monomial grid,
# bincount sums and reused evaluations: the monomial table listed matching by
# matching from the expanded multigraph, in the search's lexicographic order,
# each matching's colouring from induced_colouring, which checks the matching
# first; one np.add.at scatter per sum and a fresh gather per call.  The
# gradient's scatter takes the rows by their matching's pairs, then their
# colouring: the grid's order, in which the search adds every sum.  Its
# products are the search's one product rule, a running element-wise complex
# multiply from 1 over the table's columns, each gathered on its own.  The
# fast path must agree with it bit for bit, not within a tolerance, and these
# helpers read nothing of its layout.

SlowProblem = namedtuple("SlowProblem", "monomials group colourings targets n_vars d")


def slow_problem(g, d):
    """The checked build: every perfect matching of the expanded multigraph,
    its colouring and that colouring's place among the sorted colourings."""
    base = skeleton(g)
    pairs = [(e.u, e.v) for e in base.edges]
    expanded = Multigraph(
        base.n,
        tuple(Edge(u, v, p, q, 1) for u, v in pairs for p in range(d) for q in range(d)),
        frozenset(range(d)),
    )
    matchings = enumerate_perfect_matchings(expanded)
    induced = [induced_colouring(expanded, m) for m in matchings]
    ordered = list(dict.fromkeys((colour,) * base.n for colour in range(d)))
    ordered += sorted(set(induced).difference(ordered))
    index = {vc: k for k, vc in enumerate(ordered)}
    monomials = np.array(matchings, dtype=np.int64).reshape(len(matchings), base.n // 2)
    targets = np.zeros(len(ordered), dtype=np.complex128)
    targets[:d] = 1.0
    group = np.array([index[vc] for vc in induced], dtype=np.int64)
    return SlowProblem(monomials, group, tuple(ordered), targets, len(expanded.edges), d)


def both_problems(g, d):
    """The problem and its checked build, for one skeleton and dimension."""
    return SearchProblem(g, d), slow_problem(g, d)


def slow_group_weights(slow, x):
    w = np.zeros(len(slow.targets), dtype=np.complex128)
    if len(slow.monomials):
        products = np.ones(len(slow.monomials), dtype=np.complex128)
        for j in range(slow.monomials.shape[1]):
            products = products * x[slow.monomials[:, j]]
        np.add.at(w, slow.group, products)
    return w


def slow_value(slow, x):
    diff = slow_group_weights(slow, x) - slow.targets
    return float(np.sum(diff.real**2 + diff.imag**2))


def slow_residual(slow, x):
    diff = slow_group_weights(slow, x) - slow.targets
    contributions = diff.real**2 + diff.imag**2
    per = {vc: float(c) for vc, c in zip(slow.colourings, contributions)}
    return float(np.sum(contributions)), per


def grid_rows(slow):
    """The checked table's rows ordered by their matching's pairs, then their
    colouring's index: the order of the grid's columns."""
    pairs = slow.monomials // (slow.d * slow.d)
    return np.lexsort((slow.group, *pairs.T[::-1]))


def scatter_gradient(slow, x, rows):
    """The gradient by a width-major scatter over the checked table's rows
    taken in the order ``rows``: each variable's terms from row j first,
    then in that order."""
    grad = np.zeros(slow.n_vars, dtype=np.complex128)
    if not len(slow.monomials):
        return grad
    vals = x[slow.monomials]
    width = vals.shape[1]
    pre = np.ones_like(vals)
    suf = np.ones_like(vals)
    for j in range(1, width):
        pre[:, j] = pre[:, j - 1] * vals[:, j - 1]
        suf[:, width - 1 - j] = suf[:, width - j] * vals[:, width - j]
    leave_one_out = pre * suf
    diff = slow_group_weights(slow, x) - slow.targets
    coeff = diff[slow.group][:, None]
    np.add.at(grad, slow.monomials[rows].T, (np.conj(leave_one_out) * coeff)[rows].T)
    return 2.0 * grad


def slow_gradient(slow, x):
    """The gradient in the order the search adds each variable's terms:
    row j, then the matching, then the colouring."""
    return scatter_gradient(slow, x, grid_rows(slow))


def slow_descend(slow, x, max_iters, tol):
    f = slow_value(slow, x)
    step = 0.1
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if f <= tol:
            break
        g = slow_gradient(slow, x)
        gnorm2 = float(np.sum(g.real**2 + g.imag**2))
        if gnorm2 < 1e-24:
            break
        while step > 1e-18:
            candidate = x - step * g
            f_new = slow_value(slow, candidate)
            if f_new <= f - 1e-4 * step * gnorm2:
                x, f = candidate, f_new
                step *= 2.0
                break
            step *= 0.5
        else:
            break
    return x, f, iterations


def slow_search(slow, seed, restarts, max_iters, tol=1e-10):
    """(weights, residual value, per colouring, converged, restart, iterations)."""
    best_x, best_f, best_restart, best_iters = None, math.inf, 0, 0
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        radius = np.sqrt(rng.random(slow.n_vars))
        angle = rng.random(slow.n_vars) * 2.0 * math.pi
        x, f, iters = slow_descend(slow, radius * np.exp(1j * angle), max_iters, tol)
        if f < best_f:
            best_x, best_f, best_restart, best_iters = x, f, r, iters
        if best_f <= tol:
            break
    value, per = slow_residual(slow, best_x)
    return best_x, value, per, best_f <= tol, best_restart, best_iters


def simple_skeleton(n, pairs):
    return Multigraph(n, tuple(Edge(u, v, 0, 0, 1) for u, v in pairs), frozenset({0}))


def complete_skeleton(n):
    return simple_skeleton(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def chorded_cycle():
    """C6 with the chord 1-4: the chord lies on fewer perfect matchings than
    the cycle's edges, so its variables have fewer gradient terms."""
    return simple_skeleton(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])


DEGENERATE = {
    "empty": (lambda: Multigraph(0, (), frozenset({0})), 2),
    "k2": (lambda: parallel_ghz_k2(1), 3),
    "star": (lambda: simple_skeleton(4, [(0, 1), (0, 2), (0, 3)]), 2),
}


def degenerate_problems():
    """n = 0 (monomials of shape (1, 0)), K2 (width 1) and a star on four
    vertices, which has no perfect matching (monomials of shape (0, 2)),
    each with its checked build."""
    return {name: both_problems(build(), d) for name, (build, d) in DEGENERATE.items()}


def test_degenerate_problems_have_the_shapes_they_are_named_for():
    probs = {name: prob for name, (prob, _) in degenerate_problems().items()}
    assert probs["empty"].monomials.shape == (1, 0) and probs["empty"].n_vars == 0
    assert probs["k2"].monomials.shape == (9, 1)
    assert probs["star"].monomials.shape == (0, 2)


def bits(a):
    """IEEE bit patterns, so that -0.0 and 0.0 differ (np.array_equal and ==
    treat them as equal); a complex value gives its two parts."""
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(a, b):
    assert np.array_equal(bits(a), bits(b))


def signed_zero_mix(rng, n):
    """Weights whose parts are drawn from signed zeros and a few units, so that
    products and their sums meet every pairing of signs of zero."""
    parts = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
    x = np.empty(n, dtype=np.complex128)
    x.real = rng.choice(parts, n)
    x.imag = rng.choice(parts, n)
    return x


def assert_same_evaluation(prob, slow, x):
    value, per = slow_residual(slow, x)
    r = residual(prob, x)
    assert_same_bits([r.value, slow_value(slow, x)], [value, value])
    assert list(r.per_colouring) == list(per)
    assert_same_bits(list(r.per_colouring.values()), list(per.values()))
    assert_same_bits(gradient(prob, x), slow_gradient(slow, x))


@pytest.mark.parametrize(
    "build, d",
    [
        (lambda: cycle_ghz(6), 2),
        (lambda: cycle_ghz(8), 2),
        (lambda: cycle_ghz(10), 2),
        (lambda: complete_skeleton(6), 2),
        (lambda: complete_ghz_k4(), 3),
        (lambda: complete_ghz_k4(), 2),
        (lambda: parallel_ghz_k2(1), 3),
        # K8 at d = 1: one colouring, so each sum runs over all 105 matchings
        # and no colouring order hides the matching order
        (lambda: complete_skeleton(8), 1),
        # the one whose gradient gather is padded
        (chorded_cycle, 3),
    ],
    ids=["C6.d2", "C8.d2", "C10.d2", "K6.d2", "K4.d3", "K4.d2", "K2.d3", "K8.d1", "C6chord.d3"],
)
def test_evaluation_is_the_scatter_add_evaluation_exactly(build, d):
    prob, slow = both_problems(build(), d)
    rng = np.random.default_rng(2024)
    for scale in (0.1, 1.0, 3.0):
        for _ in range(4):
            x = scale * (rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars))
            assert_same_evaluation(prob, slow, x)
    # zeros and negative zeros: the sums must keep the scatter-add's signs of zero
    assert_same_evaluation(prob, slow, np.zeros(prob.n_vars, dtype=np.complex128))
    assert_same_evaluation(prob, slow, np.full(prob.n_vars, -0.0 - 0.0j))
    for _ in range(4):
        assert_same_evaluation(prob, slow, signed_zero_mix(rng, prob.n_vars))


@pytest.mark.parametrize(
    "build, d",
    [
        (lambda: Multigraph(0, (), frozenset({0})), 2),
        (lambda: parallel_ghz_k2(1), 3),
        (lambda: complete_ghz_k4(), 3),
        (lambda: complete_skeleton(6), 2),
        (lambda: cycle_ghz(8), 2),
        (lambda: cycle_ghz(10), 2),
    ],
    ids=["width0", "width1", "width2", "width3", "width4", "width5"],
)
def test_evaluated_products_are_the_reference_and_numpys_product(build, d):
    """The colouring weights ``_evaluate`` sums equal the reference's bit
    for bit, and each monomial's product, the prefix buffer's last row, is
    within a few ulps of numpy's own product reduce, measured against the
    product of the factors' moduli."""
    prob, slow = both_problems(build(), d)
    count, width = prob.monomials.shape
    assert prob._columns.shape == (width, count)
    # with every target 0, the evaluation's differences are its colouring weights
    weights = copy.copy(prob)
    weights.targets = np.zeros_like(prob.targets)
    rng = np.random.default_rng(width)
    points = [rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars)
              for _ in range(3)]
    points += [np.zeros(prob.n_vars, dtype=np.complex128),
               np.full(prob.n_vars, -0.0 - 0.0j)]
    points += [signed_zero_mix(rng, prob.n_vars) for _ in range(10)]
    for x in points:
        (_, pre), diff, _ = _evaluate(weights, x)
        assert_same_bits(diff, slow_group_weights(slow, x))
        expected = np.prod(x[prob.monomials], axis=1)
        moduli = np.prod(np.abs(x[prob.monomials]), axis=1)
        error = np.abs(pre[-1] - expected)
        assert np.all(error <= 4 * width * np.finfo(float).eps * moduli)


@pytest.mark.parametrize("name", ["empty", "k2", "star"])
def test_degenerate_shapes_evaluate_as_before(name):
    prob, slow = degenerate_problems()[name]
    rng = np.random.default_rng(5)
    x = rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars)
    assert_same_evaluation(prob, slow, x)
    assert gradient(prob, x).shape == (prob.n_vars,)


def assert_same_search(prob, slow, seed, restarts, max_iters, tol=1e-10):
    res = search(prob, seed=seed, restarts=restarts, max_iters=max_iters, tol=tol)
    weights, value, per, converged, restart, iterations = slow_search(
        slow, seed, restarts, max_iters, tol
    )
    assert_same_bits(res.weights, weights)
    assert_same_bits(res.residual.value, value)
    assert list(res.residual.per_colouring) == list(per)
    assert_same_bits(list(res.residual.per_colouring.values()), list(per.values()))
    assert res.converged == converged
    assert res.restart == restart and res.iterations == iterations
    return res


@pytest.mark.parametrize(
    "build, d, max_iters",
    [
        (lambda: cycle_ghz(6), 2, 300),
        (lambda: cycle_ghz(8), 2, 150),
        (lambda: cycle_ghz(10), 2, 60),
        (lambda: complete_skeleton(6), 2, 60),
        (lambda: complete_ghz_k4(), 3, 150),
        # as in the evaluation test: every sum over all 105 matchings
        (lambda: complete_skeleton(8), 1, 150),
    ],
    ids=["C6.d2", "C8.d2", "C10.d2", "K6.d2", "K4.d3", "K8.d1"],
)
def test_search_is_the_scatter_add_search_exactly(build, d, max_iters):
    prob, slow = both_problems(build(), d)
    for seed in (0, 1):
        assert_same_search(prob, slow, seed, restarts=2, max_iters=max_iters)


@pytest.mark.parametrize("name", ["empty", "k2", "star"])
def test_degenerate_shapes_search_as_before(name):
    prob, slow = degenerate_problems()[name]
    res = assert_same_search(prob, slow, seed=4, restarts=2, max_iters=200)
    assert res.weights.shape == (prob.n_vars,)
    if name == "star":  # no perfect matching: every mono colouring misses by 1
        assert not res.converged and res.residual.value == 2.0
    else:
        assert res.converged


# ---------------------------------------------------------------------------
# The problem build against the checked build, and exactify as it was before
# the one-colouring refutation: every weight rounded and re-verified
# whenever all lie within 1e-9 of their roundings.  The fast paths must give
# the same table, colourings and gradient order, and the same
# Exactification, weight for weight.


def rounded_graph(problem, x):
    """The assignment with every weight rounded as exactify rounds it."""
    return _coloured_graph(
        problem, [GaussianRational.from_float(float(z.real), float(z.imag)) for z in x]
    )


def slow_exactify(problem, slow, weights, epsilon=None):
    x = _check_weights(problem, weights)
    rounded = [GaussianRational.from_float(float(z.real), float(z.imag)) for z in x]
    err = max((abs(complex(r) - z) for r, z in zip(rounded, x)), default=0.0)
    if err <= 1e-9:
        exact_graph = _coloured_graph(problem, rounded)
        verdict = verify(exact_graph)
        if verdict.is_ghz and verdict.dimension == problem.d:
            return Exactification(exact_graph, verdict, "exact", 0.0)
    float_graph = assignment_graph(problem, x)
    achieved = slow_value(slow, x)
    eps = epsilon if epsilon is not None else max(DEFAULT_EPSILON, 2.0 * math.sqrt(achieved))
    return Exactification(float_graph, verify(float_graph, eps), "numeric", eps)


def exactification_bits(cert):
    g, verdict = cert.graph, cert.verdict
    return (
        g.n,
        g.colour_universe,
        [(e.u, e.v, e.cu, e.cv, weight_bits(e.weight)) for e in g.edges],
        (verdict.is_ghz, verdict.is_g_ghz, verdict.dimension),
        [(v.colouring, weight_bits(v.weight), v.kind) for v in verdict.violations],
        cert.mode,
        cert.epsilon.hex(),
    )


def assert_same_exactification(problem, slow, x, epsilon=None):
    cert = exactify(problem, x, epsilon)
    assert exactification_bits(cert) == exactification_bits(slow_exactify(problem, slow, x, epsilon))
    return cert


def planted_vector(problem, g):
    """The variable vector of a graph whose pairs are among the problem's."""
    x = np.zeros(problem.n_vars, dtype=np.complex128)
    pair_index = {pair: e for e, pair in enumerate(problem.pairs)}
    for e in g.edges:
        x[problem.variable_index(pair_index[(e.u, e.v)], e.cu, e.cv)] += complex(e.weight)
    return x


SHAPES = {
    "C6.d2": (lambda: cycle_ghz(6), 2),
    "C8.d2": (lambda: cycle_ghz(8), 2),
    "C10.d2": (lambda: cycle_ghz(10), 2),
    "K4.d3": (complete_ghz_k4, 3),
    "K6.d2": (lambda: complete_skeleton(6), 2),
}

#: (problem shape, GHZ graph of full dimension on a subgraph of its skeleton)
PLANTED = {
    "K2.d2": ((lambda: parallel_ghz_k2(2), 2), lambda: parallel_ghz_k2(2)),
    "K2.d3": ((lambda: parallel_ghz_k2(3), 3), lambda: parallel_ghz_k2(3)),
    "C6.d2": (SHAPES["C6.d2"], lambda: cycle_ghz_on(range(6), [2.0, 0.25, 0.5, -4.0, 1.0, -1.0])),
    "C8.d2": (SHAPES["C8.d2"], lambda: cycle_ghz(8)),
    "C10.d2": (SHAPES["C10.d2"], lambda: cycle_ghz(10)),
    "K4.d3": (SHAPES["K4.d3"], complete_ghz_k4),
    "K6.d2": (SHAPES["K6.d2"], lambda: cycle_ghz(6)),
}


BUILDS = dict(
    SHAPES,
    **{
        "empty.d2": (lambda: Multigraph(0, (), frozenset({0})), 2),
        "K2.d3": (lambda: parallel_ghz_k2(1), 3),
        "star.d2": (lambda: simple_skeleton(4, [(0, 1), (0, 2), (0, 3)]), 2),
        "K4.d2": (complete_ghz_k4, 2),
        "K6.d1": (lambda: complete_skeleton(6), 1),
        "C6chord.d3": (chorded_cycle, 3),
    },
)


def lexicographic_order(table):
    """The rows of a 2-D table in lexicographic order, as row indices."""
    if not table.shape[1]:
        return np.arange(len(table))
    return np.lexsort(table.T[::-1])


@pytest.mark.parametrize("shape", BUILDS.values(), ids=BUILDS)
def test_problem_build_is_the_checked_build(shape):
    """The grid's columns, sorted lexicographically, are the checked build's
    table, and the colourings are its colourings.  Grid column pm * n_col + c
    colours the graph as colouring c, and its pairs are the pm-th perfect
    matching of the skeleton in lexicographic order."""
    build, d = shape
    prob, slow = both_problems(build(), d)
    order = lexicographic_order(prob.monomials)
    assert prob.monomials.dtype == slow.monomials.dtype
    assert np.array_equal(prob.monomials[order], slow.monomials)
    assert prob.colourings == slow.colourings
    n_col = len(prob.colourings)
    assert np.array_equal(order % n_col, slow.group)
    count, width = prob.monomials.shape
    pairs = (prob.monomials // (d * d)).reshape(count // n_col, n_col, width)
    assert (pairs == pairs[:, :1]).all()
    matchings = [tuple(block[0]) for block in pairs]
    assert matchings == sorted(set(matchings))
    # one table: monomials is a view of the contiguous rows the evaluation gathers from
    owner = [a if a.base is None else a.base for a in (prob.monomials, prob._columns)]
    assert owner[0] is owner[1] and prob._columns.flags.c_contiguous
    assert np.array_equal(prob.monomials.T, prob._columns)


#: K8 at d = 2 holds each pair at several rows across its 105 matchings
GATHERS = dict(BUILDS, **{"K8.d2": (lambda: complete_skeleton(8), 2)})


@pytest.mark.parametrize("shape", GATHERS.values(), ids=GATHERS)
def test_gradient_gather_lists_each_variables_terms_in_the_scatter_order(shape):
    """Column k of the gradient's gather lists variable k's terms in the
    order the reference's width-major scatter adds them, row j first, then
    the matching, then the colouring, as positions in the grid's flattened
    (width, M) table; shorter columns end in the slot one past the table."""
    build, d = shape
    prob, slow = both_problems(build(), d)
    count, width = slow.monomials.shape
    rows = grid_rows(slow)
    columns = [[] for _ in range(slow.n_vars)]
    for j in range(width):
        for column, k in enumerate(slow.monomials[rows, j]):
            columns[k].append(j * count + column)
    depth = max(map(len, columns), default=0)
    padded = [column + [width * count] * (depth - len(column)) for column in columns]
    expected = np.array(padded, dtype=np.int64).reshape(slow.n_vars, depth).T
    assert prob._gather.dtype == expected.dtype and np.array_equal(prob._gather, expected)


@pytest.mark.parametrize("shape", BUILDS.values(), ids=BUILDS)
def test_the_gradient_is_the_sorted_tables_scatter_but_for_the_addition_order(shape):
    """The width-major scatter over the checked build's lexicographically
    sorted table adds each variable's terms in another order than the
    search, so the two gradients agree within 1e-12 relative, not bit for
    bit."""
    build, d = shape
    prob, slow = both_problems(build(), d)
    rng = np.random.default_rng(34)
    for scale in (0.1, 1.0, 3.0):
        x = scale * (rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars))
        sorted_order = scatter_gradient(slow, x, np.arange(len(slow.monomials)))
        error = np.max(np.abs(gradient(prob, x) - sorted_order), initial=0.0)
        assert error <= 1e-12 * np.max(np.abs(sorted_order), initial=0.0)


def test_the_chorded_cycles_gather_is_padded():
    """The chord lies on one of C6 + chord's three perfect matchings, some
    cycle edges on two, so some gather columns are padded with the zero slot."""
    prob = SearchProblem(chorded_cycle(), 3)
    count, width = prob.monomials.shape
    terms = (prob._gather != width * count).sum(axis=0)
    assert sorted(set(terms)) == [81, 162] and len(prob._gather) == 162


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_exactify_after_short_searches_is_the_full_rounding_exactify(shape):
    build, d = shape
    prob, slow = both_problems(build(), d)
    for seed in (0, 1):
        res = search(prob, seed=seed, restarts=2, max_iters=60)
        assert assert_same_exactification(prob, slow, res.weights).mode == "numeric"
        assert_same_exactification(prob, slow, res.weights, epsilon=1e-3)
    rng = np.random.default_rng(27)
    x = rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars)
    assert_same_exactification(prob, slow, x)


@pytest.mark.parametrize("case", PLANTED.values(), ids=PLANTED)
def test_exactify_is_the_full_rounding_exactify_at_planted_points(case):
    (build, d), planted = case
    prob, slow = both_problems(build(), d)
    x = planted_vector(prob, planted())
    assert residual(prob, x).value == 0.0
    for shift in (0.0, 1e-12, -1e-12, 1e-12j, -1e-12j):
        assert assert_same_exactification(prob, slow, x + shift).mode == "exact"
    # one weight far enough off that the rounding moves it
    x[np.flatnonzero(x)[0]] += 1e-6
    assert assert_same_exactification(prob, slow, x).mode == "numeric"


def test_exactify_on_the_empty_skeleton_is_the_full_rounding_exactify():
    prob, slow = both_problems(Multigraph(0, (), frozenset({0})), 2)
    x = np.zeros(0, dtype=np.complex128)
    assert assert_same_exactification(prob, slow, x).mode == "exact"  # () weighs 1
    assert_same_exactification(prob, slow, x, epsilon=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_exactify_on_a_weight_that_is_not_finite_raises_as_before(bad):
    """A weight that is not finite is refused with one domain error, by
    exactify and every other function that takes an assignment, and
    without a numpy warning."""
    prob = SearchProblem(complete_ghz_k4(), 3)
    x = k4_solution_vector(prob)
    x[-1] = bad  # a variable off every solution edge
    message = re.escape(f"weight {prob.n_vars - 1} is not finite: {complex(bad)}")
    for function in (exactify, residual, gradient, assignment_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                function(prob, x)


def test_exactify_where_the_weights_sum_past_the_float_range_is_the_full_rounding_exactify():
    prob, slow = both_problems(complete_ghz_k4(), 3)
    x = k4_solution_vector(prob)
    x[-2:] = 1.5e308  # each finite, their sum not
    with np.errstate(over="ignore", invalid="ignore"):
        assert assert_same_exactification(prob, slow, x).mode == "numeric"


def test_a_refuted_certificate_fails_the_full_exact_verify():
    seen = {True: 0, False: 0}
    for name, ((build, d), planted) in PLANTED.items():
        prob = SearchProblem(build(), d)
        rng = np.random.default_rng(len(name))
        base = planted_vector(prob, planted())
        points = [base + scale * (rng.standard_normal(prob.n_vars) + 1j * rng.standard_normal(prob.n_vars))
                  for scale in (0.0, 1e-12, 1e-7, 1e-3, 1.0)]
        points.append(search(prob, seed=0, restarts=1, max_iters=40).weights)
        points.append(np.round(points[-1], 1))  # on a coarse rational grid
        for x in points:
            _, diff, _ = _evaluate(prob, x)
            refuted = _refutes(prob, x, diff)
            seen[refuted] += 1
            if refuted:
                verdict = verify(rounded_graph(prob, x))
                assert not (verdict.is_ghz and verdict.dimension == d)
    assert seen[True] and seen[False]


@pytest.mark.parametrize("n", [6, 8])
def test_search_never_converges_to_dimension_3_on_a_cycle(n):
    """A GHZ graph on more than 4 vertices with vertex connectivity at most 2
    has dimension at most 2 (the paper's theorem), and every graph on a cycle
    skeleton has connectivity at most 2, so no assignment on C6 or C8 has
    residual 0 at d = 3.  ``search`` refuses to look there, with the error
    that names the theorem, and so never reports convergence."""
    prob = SearchProblem(cycle_ghz(n), 3)
    for seed in (0, 1):
        with pytest.raises(ConnectivityBoundError) as info:
            search(prob, seed=seed, restarts=2, max_iters=200)
        assert info.value.code == "KRENN_GU_CONNECTIVITY_2"


def plain_skeleton(n, pairs):
    return Multigraph(n, [Edge(u, v, 0, 0, GaussianRational(1)) for u, v in pairs], {0})


#: K4 on 0..3 and the triangle 3, 4, 5: vertex 3 cuts them apart, and
#: {0, 1}, {2, 3}, {4, 5} is a perfect matching
CUT_VERTEX = plain_skeleton(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def no_descent(monkeypatch):
    """Make any descent fail the test: the bound must answer before it."""
    def descend(*args):
        raise AssertionError("search descended")

    monkeypatch.setattr(sys.modules["ghzgraphs.search"], "_descend", descend)


@pytest.mark.parametrize("g, d", [
    (cycle_ghz(6), 3), (cycle_ghz(8), 3), (CUT_VERTEX, 3), (cycle_ghz(6), 4), (CUT_VERTEX, 5),
], ids=["C6-d3", "C8-d3", "cut-vertex-d3", "C6-d4", "cut-vertex-d5"])
def test_search_refuses_a_dimension_above_2_at_connectivity_2_or_less(monkeypatch, g, d):
    prob = SearchProblem(g, d)
    no_descent(monkeypatch)
    with pytest.raises(ConnectivityBoundError) as info:
        search(prob, restarts=1, max_iters=1)
    assert isinstance(info.value, GhzGraphError) and info.value.code == "KRENN_GU_CONNECTIVITY_2"
    assert "dimension at most 2" in str(info.value)


@pytest.mark.parametrize("g, d", [
    (complete_ghz_k4(), 3),  # 4 vertices: the bound needs more
    (plain_skeleton(6, itertools.combinations(range(6), 2)), 3),  # K6: connectivity 5
    (octahedron(), 3),  # connectivity 4
    (cycle_ghz(6), 2), (cycle_ghz(8), 1), (CUT_VERTEX, 2),  # d <= 2
], ids=["K4-d3", "K6-d3", "octahedron-d3", "C6-d2", "C8-d1", "cut-vertex-d2"])
def test_search_descends_where_the_bound_does_not_apply(g, d):
    result = search(SearchProblem(g, d), restarts=1, max_iters=1)
    assert result.restart == 0 and result.iterations <= 1
