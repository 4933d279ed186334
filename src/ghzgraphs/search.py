"""Numerical search for GHZ weight assignments on a fixed skeleton.

One complex variable per (skeleton edge, ordered colour pair): the variable
for pair index e and colours (p, q) sits at index e*d*d + p*d + q and is the
weight of the coloured edge carrying p at the lower endpoint and q at the
upper one.  Every colouring weight is a multilinear polynomial in these
variables -- one monomial per perfect matching of the fully-expanded
multigraph -- so the structure (which variables multiply into which
colouring) is computed once per skeleton and dimension, independent of any
weights.

The residual is   sum_mono |w(i) - 1|^2 + sum_non-mono |w(vc)|^2,  summed
over all d monochromatic colourings (feasible or not) and every feasible
non-monochromatic one; it is 0 exactly at GHZ assignments of dimension d.
Minimization is plain gradient descent with a backtracking line search,
restarted from seeded random points in the unit polydisc.  The gradient of
the real residual with respect to (Re x_k, Im x_k) is packed into one
complex number per variable:  g_k = 2 * sum_vc conj(D_k,vc) * (w_vc - t_vc)
with D_k,vc the sum over matchings through k of the leave-one-out products.

Every colouring of the expanded multigraph takes exactly one monomial from
each perfect matching of the skeleton, so the monomial table is a regular
grid: column [j, pm, c] is the variable of the skeleton matching pm's j-th
pair (matchings as sorted tuples of pair indices, in lexicographic order),
coloured as colouring c colours its ends.  The build enumerates the
skeleton's matchings (15 for K6, 2 for a cycle), not the expanded graph's,
and forms the grid by broadcasting, stored once as contiguous rows of shape
(width, M), M = n_pm * n_col, matching-major (``monomials`` is its (M,
width) transposed view).

Each point is evaluated once (``_evaluate``): one gather x[columns], then
the running products from 1, written into the rows of one (width + 1, M)
prefix buffer (row j holds the product of the first j factors, the last row
the monomial products), then each colouring's sum as one axis-0 reduction
over the (n_pm, n_col) products, matchings added in order from 0.  Every
product in the search, the evaluation's prefixes and the gradient's
suffixes alike, is a running element-wise complex multiply from 1 down
contiguous rows of shape (width, M).  They must stay on such rows: the
multiply's bits depend on the strides (written into a column of an (M,
width) array, the prefix products of 464 of K6 d=2's 960 monomials change
in their last bits).

The gradient reuses the gather, the prefix rows and the colourings'
differences, forms only the suffix products and multiplies in the
differences by broadcasting over the matchings.  Every sum in the search
adds its terms from 0 in the grid's one order: row j, then the matching,
then the colouring.  So the gradient's gather, ``_gather``, is the stable
sort of the flattened grid, one column per variable, shorter columns
ending in a slot held at 0; one gather of the terms through it and one
axis-0 reduction add each variable's terms.  The reductions run
on float views, whose inner axis is never of length 1: an axis-0 reduction
adds its rows in sequence only while the inner length is above 1, and
pairs them up otherwise.  The line search keeps the accepted candidate's
evaluation, prefix buffer included, so the next gradient needs no new one,
and frees a rejected candidate's before it evaluates the next.  All of this
path (the monomial grid, the prefix buffer and the gather) would go if the
residual and its gradient were computed by an inside-outside pass over the
weight kernel instead.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import ConnectivityBoundError
from .exact import GaussianRational, _as_tolerance, _refuse_non_int
from .ghz import DEFAULT_EPSILON, verify
from .graphs import Edge, Multigraph, skeleton
from .matchings import colouring_weight, enumerate_perfect_matchings
from .structure import vertex_connectivity


class SearchProblem:
    """Monomial structure of the residual for one skeleton and dimension."""

    def __init__(self, g: Multigraph, d: int):
        d = _refuse_non_int(d, "dimension")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        base = skeleton(g)
        self.skeleton = base
        self.d = d
        self.pairs: tuple[tuple[int, int], ...] = tuple((e.u, e.v) for e in base.edges)
        self.n_vars = len(self.pairs) * d * d

        # every colouring of the expanded graph takes one monomial from each
        # perfect matching of the skeleton, so the monomial table is a grid:
        # the matchings (sorted tuples of pair indices, in lexicographic
        # order) major, the colourings minor
        matchings = sorted(enumerate_perfect_matchings(base))
        # monos first (one entry when n = 0), then, if there is a perfect
        # matching, every other colouring in lexicographic order
        ordered = list(dict.fromkeys((colour,) * base.n for colour in range(d)))
        if matchings:
            ordered += [vc for vc in itertools.product(range(d), repeat=base.n) if len(set(vc)) > 1]
        self.colourings: tuple[tuple, ...] = tuple(ordered)

        # column [j, pm, c] is the variable of matching pm's j-th pair coloured
        # as colouring c colours its ends; the table is stored once, as the
        # contiguous (width, M) rows the evaluation gathers from, and
        # monomials is its (M, width) transposed view
        width = base.n // 2
        dd = d * d
        chosen = np.array(matchings, dtype=np.int64).reshape(len(matchings), width).T
        ends = np.array(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        colour = np.array(ordered, dtype=np.int64).reshape(len(ordered), base.n).T
        # the colour pair each colouring puts on each pair's ends, (n_pairs, n_col)
        classes = colour[ends[:, 0]] * d + colour[ends[:, 1]]
        grid = np.ascontiguousarray(classes[chosen])
        grid += (chosen * dd)[:, :, None]
        self._columns = grid.reshape(width, len(matchings) * len(ordered))
        self.monomials = self._columns.T
        self._matching_count = len(matchings)
        self._gather = _gather_index(self._columns, self.n_vars)
        targets = np.zeros(len(ordered), dtype=np.complex128)
        targets[:d] = 1.0
        self.targets = targets

    def variable_index(self, pair: int, p: int, q: int) -> int:
        pair = _refuse_non_int(pair, "pair index")
        p, q = _refuse_non_int(p, "colour"), _refuse_non_int(q, "colour")
        if not 0 <= pair < len(self.pairs):
            raise ValueError(f"pair index {pair} out of range")
        if not (0 <= p < self.d and 0 <= q < self.d):
            raise ValueError(f"colours ({p}, {q}) outside 0..{self.d - 1}")
        return pair * self.d * self.d + p * self.d + q


def _gather_index(columns: np.ndarray, n_vars: int) -> np.ndarray:
    """The gradient's (c_max, n_vars) gather: column k lists variable k's
    positions in the flattened table in order, its run in the stable sort
    of the entries, and shorter columns end in the index one past the
    table."""
    flat = columns.ravel()
    order = np.argsort(flat, kind="stable")
    keys = flat[order]
    counts = np.bincount(flat, minlength=n_vars)
    starts = np.cumsum(counts) - counts
    rank = np.arange(flat.size)
    rank -= starts[keys]  # each term's place in its variable's run, in place to spare a copy
    gather = np.full((counts.max(initial=0), n_vars), flat.size, dtype=np.int64)
    gather[rank, keys] = order
    return gather


class Residual(namedtuple("Residual", "value per_colouring")):
    """The residual (float) and a dict of each colouring's contribution to it."""

    __slots__ = ()


class SearchResult(namedtuple("SearchResult", "weights residual converged restart iterations")):
    """The best assignment found (an np.ndarray), its Residual, whether it
    converged, and the restart and iteration count it came from."""

    __slots__ = ()


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """SeedSequence's 32-bit hash: each call xors in the running constant,
    steps it by ``multiplier``, multiplies by it and folds the top half down."""

    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hash_word


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _uniforms(entropy, count: int) -> np.ndarray:
    """``np.random.default_rng(entropy).random(count)``, bit for bit, for a
    tuple of non-negative ints, without loading ``numpy.random``.

    numpy's ``SeedSequence`` splits each int into little-endian 32-bit words,
    hashes the first four into a pool of four words (zeros past the end),
    mixes every pool word into every other, then folds in any further words;
    ``generate_state(4, uint64)`` hashes the pool out to eight 32-bit words,
    read in pairs, low word first, as four 64-bit words.  PCG64 (O'Neill's
    XSL-RR 128/64) takes the first two as its initial state and the last two
    as its stream, both high word first, and steps its 128-bit LCG before
    each output.  An output xors the state's two halves and rotates right by
    the state's top six bits; a double is its top 53 bits times 2**-53.  The
    LCG runs on Python ints, the output in numpy.
    """
    words = []
    for value in entropy:
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                break
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [hash_out(pool[i % 4]) for i in range(8)]
    words64 = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
    seed = words64[0] << 64 | words64[1]
    inc = (words64[2] << 64 | words64[3]) << 1 & _MASK128 | 1
    current = ((inc + seed) * _PCG_MULTIPLIER + inc) & _MASK128
    states = []
    for _ in range(count):
        current = (current * _PCG_MULTIPLIER + inc) & _MASK128
        states.append(current)
    low, high = np.frombuffer(b"".join(x.to_bytes(16, "little") for x in states), dtype="<u8").reshape(-1, 2).T
    folded = high ^ low
    rotation = high >> 58
    output = folded >> rotation | folded << ((64 - rotation) & 63)
    return (output >> 11) * 2.0**-53


def _check_weights(problem: SearchProblem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (problem.n_vars,):
        raise ValueError(f"expected {problem.n_vars} weights, got shape {x.shape}")
    # x * 0 sums to 0 exactly when every weight is finite, with loops the
    # search runs anyway (a first call of np.isfinite adds about 0.35 MB of
    # resident memory)
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN
        zeroed = x * 0
    if np.add.reduce(zeroed) != 0:
        k = int(np.flatnonzero(zeroed != 0)[0])
        raise ValueError(f"weight {k} is not finite: {complex(x[k])}")
    return x


def _evaluate(problem: SearchProblem, x: np.ndarray):
    """(factors, diff, f) at x: factors = (vals, pre) with vals[j, m] =
    x[monomials[m, j]] and pre[j] the running product of rows 0..j-1 of vals
    (pre[0] = 1, pre[-1] the monomial products), diff[vc] = w_vc - t_vc and
    f the residual."""
    vals = x[problem._columns]  # (width, M)
    pre = np.empty((len(vals) + 1, vals.shape[1]), dtype=np.complex128)
    pre[0] = 1  # with no rows (n = 0), the one empty matching weighs 1
    for j, row in enumerate(vals):
        np.multiply(pre[j], row, out=pre[j + 1])
    # each colouring's products, one per matching, added from 0 in matching
    # order; on the float view, so the inner axis is never of length 1 (d = 1),
    # where the reduction would sum pairwise
    products = pre[-1].view(np.float64).reshape(problem._matching_count, 2 * len(problem.targets))
    sums = np.add.reduce(products, axis=0, initial=0.0)
    diff = sums.view(np.complex128) - problem.targets
    return (vals, pre), diff, float(np.add.reduce(diff.real**2 + diff.imag**2))


def _gradient(problem: SearchProblem, factors, diff: np.ndarray) -> np.ndarray:
    """The complex-packed gradient from a point's ``_evaluate`` output."""
    vals, pre = factors
    width, count = vals.shape
    slots = np.empty(width * count + 1, dtype=np.complex128)
    suf = slots[:-1].reshape(width, count)
    suf[-1:] = 1  # a slice, not a row: width is 0 when n = 0
    for j in range(1, width):
        np.multiply(suf[width - j], vals[width - j], out=suf[width - 1 - j])
    leave_one_out = np.multiply(pre[:-1], suf, out=suf)
    np.conjugate(leave_one_out, out=leave_one_out)
    by_colouring = leave_one_out.reshape(width, problem._matching_count, len(diff))
    np.multiply(by_colouring, diff, out=by_colouring)
    slots[-1] = 0  # the gather's padding
    # each variable's terms, gathered in the scatter's order and added from 0
    terms = slots[problem._gather].view(np.float64)
    return 2.0 * np.add.reduce(terms, axis=0, initial=0.0).view(np.complex128)


def residual(problem: SearchProblem, weights) -> Residual:
    """Residual value plus the |w_vc - t_vc|^2 contribution per colouring."""
    _, diff, f = _evaluate(problem, _check_weights(problem, weights))
    contributions = diff.real**2 + diff.imag**2
    per = {vc: float(c) for vc, c in zip(problem.colourings, contributions)}
    return Residual(f, per)


def gradient(problem: SearchProblem, weights) -> np.ndarray:
    """Complex-packed gradient: (d/dRe x_k) + i (d/dIm x_k) of the residual."""
    factors, diff, _ = _evaluate(problem, _check_weights(problem, weights))
    return _gradient(problem, factors, diff)


def _descend(problem: SearchProblem, x: np.ndarray, max_iters: int, tol: float):
    """Backtracking gradient descent from one starting point."""
    factors, diff, f = _evaluate(problem, x)
    step = 0.1
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if f <= tol:
            break
        g = _gradient(problem, factors, diff)
        gnorm2 = float(np.add.reduce(g.real**2 + g.imag**2))
        if gnorm2 < 1e-24:
            break
        while step > 1e-18:
            candidate = x - step * g
            c_factors, c_diff, f_new = _evaluate(problem, candidate)
            if f_new <= f - 1e-4 * step * gnorm2:
                x, factors, diff, f = candidate, c_factors, c_diff, f_new
                step *= 2.0
                break
            del c_factors  # free a rejected candidate's buffers before the next evaluation
            step *= 0.5
        else:
            break
    return x, f, iterations


def search(
    problem: SearchProblem,
    seed: int = 0,
    restarts: int = 20,
    max_iters: int = 2000,
    tol: float = 1e-10,
) -> SearchResult:
    """Multi-restart descent; returns the best point found, deterministically.

    Restart r draws its start from numpy's default_rng seeded with
    (seed, r): weights uniform on the unit disc, radii the square roots of
    its first n_vars ``random()`` numbers and angles 2*pi times the next
    n_vars.  Those numbers are computed without loading ``numpy.random``
    (``_uniforms``), bit for bit the ones ``default_rng((seed, r))`` gives.
    The first restart to reach ``tol`` wins outright; otherwise the lowest
    residual does, earlier restarts breaking ties.

    A skeleton on more than 4 vertices with vertex connectivity at most 2
    carries no GHZ graph of dimension 3 or more (``ConnectivityBoundError``),
    so there ``search`` refuses d >= 3 before it descends.
    """
    seed = _refuse_non_int(seed, "seed")
    restarts, max_iters = _refuse_non_int(restarts, "restarts"), _refuse_non_int(max_iters, "max_iters")
    for name, value, low in (("seed", seed, 0), ("restarts", restarts, 1), ("max_iters", max_iters, 0)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    tol = _as_tolerance(tol, "tol")
    base, d = problem.skeleton, problem.d
    if base.n > 4 and d >= 3:
        kappa = vertex_connectivity(base)
        if kappa <= 2:
            raise ConnectivityBoundError(
                f"no weighting of this skeleton is GHZ of dimension {d}: a GHZ graph on "
                f"{base.n} > 4 vertices with vertex connectivity {kappa} <= 2 has dimension at most 2"
            )
    best_x = None
    best_f = math.inf
    best_restart = 0
    best_iters = 0
    for r in range(restarts):
        draws = _uniforms((seed, r), 2 * problem.n_vars)
        radius = np.sqrt(draws[:problem.n_vars])
        angle = draws[problem.n_vars:] * 2.0 * math.pi
        x0 = radius * np.exp(1j * angle)
        x, f, iters = _descend(problem, x0, max_iters, tol)
        if f < best_f:
            best_x, best_f, best_restart, best_iters = x, f, r, iters
        if best_f <= tol:
            break
    return SearchResult(
        weights=best_x,
        residual=residual(problem, best_x),
        converged=bool(best_f <= tol),
        restart=best_restart,
        iterations=best_iters,
    )


def _coloured_graph(problem: SearchProblem, weights) -> Multigraph:
    """The multigraph with one edge per variable, weighted weights[k] at index k."""
    d = problem.d
    edges = tuple(
        Edge(u, v, p, q, weights[e * d * d + p * d + q])
        for e, (u, v) in enumerate(problem.pairs)
        for p in range(d)
        for q in range(d)
    )
    return Multigraph(problem.skeleton.n, edges, frozenset(range(d)))


def assignment_graph(problem: SearchProblem, weights) -> Multigraph:
    """The float-weighted multigraph an assignment vector describes."""
    return _coloured_graph(problem, [complex(z) for z in _check_weights(problem, weights)])


class Exactification(namedtuple("Exactification", "graph verdict mode epsilon")):
    """A Multigraph, its GhzVerdict, the mode ("exact" | "numeric") and the
    tolerance the verdict used (0.0 in exact mode)."""

    __slots__ = ()


def _refutes(problem: SearchProblem, x: np.ndarray, diff: np.ndarray) -> bool:
    """Whether the colouring farthest from its target at x (the first
    argmax of |diff|²) has an exact weight other than its target once its
    edges, one per skeleton pair, are rounded as ``exactify`` rounds them.

    If so, the fully rounded graph is not GHZ of dimension d: a mono
    colouring off 1 is infeasible (it adds no dimension), weighs 0 or weighs
    something else, and a non-mono colouring off 0 is a violation.  The
    argmax's |diff|² reuses loops the evaluation runs, rather than np.abs:
    calling np.abs and np.isfinite here for the first time raised the search
    workload's peak resident memory by about 0.35 MB.
    """
    worst = int(np.argmax(diff.real**2 + diff.imag**2))
    vc = problem.colourings[worst]
    d = problem.d
    edges = []
    for e, (u, v) in enumerate(problem.pairs):
        z = x[e * d * d + vc[u] * d + vc[v]]
        w = GaussianRational.from_float(float(z.real), float(z.imag))
        edges.append(Edge(u, v, vc[u], vc[v], w))
    rounded = Multigraph(problem.skeleton.n, tuple(edges), frozenset(range(d)))
    target = 1 if worst < d else 0  # the monos come first
    return colouring_weight(rounded, vc) != target


def exactify(problem: SearchProblem, weights, epsilon: float | None = None) -> Exactification:
    """Certify an assignment exactly when possible, numerically otherwise.

    The rounding is fixed: each weight goes to the nearest Gaussian
    rational with denominators up to 10**6, and when every weight lies
    within 1e-9 of its rounding, the rounded weights are re-verified with
    exact arithmetic; if that confirms a GHZ graph of full dimension the
    verdict is exact.  Anything else falls back to a float verdict at
    ``epsilon``, by default a tolerance reflecting the achieved residual.

    GHZ is an exact property: in a GHZ graph of dimension d every mono
    colouring weighs exactly 1 and every other colouring exactly 0.  So one
    colouring that misses its target in the rounded graph refutes the
    certificate, and a colouring's weight reads only its own edges, one per
    skeleton pair.  Before rounding everything, ``exactify`` rounds the
    edges of the colouring farthest from its target at x and computes its
    exact weight; if that is not exactly the target, it goes straight to the
    numeric verdict, which is the one the full exact check would have led
    to.  Away from an exact solution this refutes the certificate at the
    cost of one small exact weight instead of a full exact table.

    An ``epsilon`` that is not ``None`` is read as ``verify`` reads its
    tolerance, before either path runs.
    """
    if epsilon is not None:
        epsilon = _as_tolerance(epsilon, "epsilon")
    x = _check_weights(problem, weights)
    _, diff, achieved = _evaluate(problem, x)
    if not _refutes(problem, x, diff):
        rounded = [GaussianRational.from_float(float(z.real), float(z.imag)) for z in x]
        err = max(
            (abs(complex(r) - z) for r, z in zip(rounded, x)),
            default=0.0,
        )
        if err <= 1e-9:
            exact_graph = _coloured_graph(problem, rounded)
            verdict = verify(exact_graph)
            if verdict.is_ghz and verdict.dimension == problem.d:
                return Exactification(exact_graph, verdict, "exact", 0.0)

    float_graph = assignment_graph(problem, x)
    eps = epsilon if epsilon is not None else max(DEFAULT_EPSILON, 2.0 * math.sqrt(achieved))
    return Exactification(float_graph, verify(float_graph, eps), "numeric", eps)
