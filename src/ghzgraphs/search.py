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

Each point is evaluated once (``_evaluate``): one gather x[columns], where
``columns`` is the monomial table transposed to contiguous rows of shape
(width, M), the monomial products, and the per-colouring sums as
``np.bincount`` over the real and imaginary parts.  The products
(``_products``) are formed in real arithmetic exactly as numpy's scalar
complex-multiply reduce loop forms them, so they equal
``np.prod(x[monomials], axis=1)`` bit for bit.  An element-wise complex
multiply would not: numpy's SIMD loop fuses multiplies and adds, which moves
the last digits and with them every residual.  The gradient reuses the
gather and the colourings' differences.  Its prefix and suffix products are
element-wise complex multiplies, whose bits do not depend on the strides,
and its terms are copied back to monomial-major order, so the bincount sums
add in the order of the ``np.add.at`` scatter they replaced and the iterates
are bit-identical.  The line search keeps the accepted candidate's
evaluation, so the next gradient needs no new one.

numpy is imported inside the functions that use it, not at module level: it
is loaded the first time a search problem is built or evaluated, so the rest
of the library and every CLI command but ``search`` run without it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exact import GaussianRational
from .ghz import DEFAULT_EPSILON, verify
from .graphs import Edge, Multigraph, skeleton
from .matchings import enumerate_perfect_matchings, induced_colouring


class SearchProblem:
    """Monomial structure of the residual for one skeleton and dimension."""

    def __init__(self, g: Multigraph, d: int):
        import numpy as np

        if isinstance(d, bool) or not isinstance(d, int):
            raise ValueError(f"dimension must be an int, got {d!r}")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        base = skeleton(g)
        self.skeleton = base
        self.d = d
        self.pairs: tuple[tuple[int, int], ...] = tuple((e.u, e.v) for e in base.edges)
        self.n_vars = len(self.pairs) * d * d

        expanded = _coloured_graph(self, [1] * self.n_vars)
        matchings = enumerate_perfect_matchings(expanded)
        induced = [induced_colouring(expanded, m) for m in matchings]
        # monos first (one entry when n = 0), then the rest sorted for stable reporting
        ordered = list(dict.fromkeys((colour,) * base.n for colour in range(d)))
        ordered += sorted(set(induced).difference(ordered))
        self.colourings: tuple[tuple, ...] = tuple(ordered)
        index = {vc: k for k, vc in enumerate(ordered)}

        width = base.n // 2
        self.monomials = np.array(matchings, dtype=np.int64).reshape(len(matchings), width)
        self._columns = np.ascontiguousarray(self.monomials.T)
        self.monomial_group = np.array([index[vc] for vc in induced], dtype=np.int64)
        targets = np.zeros(len(ordered), dtype=np.complex128)
        targets[:d] = 1.0
        self.targets = targets

    def variable_index(self, pair: int, p: int, q: int) -> int:
        if not 0 <= pair < len(self.pairs):
            raise ValueError(f"pair index {pair} out of range")
        if not (0 <= p < self.d and 0 <= q < self.d):
            raise ValueError(f"colours ({p}, {q}) outside 0..{self.d - 1}")
        return pair * self.d * self.d + p * self.d + q


class Residual(namedtuple("Residual", "value per_colouring")):
    """The residual (float) and a dict of each colouring's contribution to it."""

    __slots__ = ()


class SearchResult(namedtuple("SearchResult", "weights residual converged restart iterations")):
    """The best assignment found (an np.ndarray), its Residual, whether it
    converged, and the restart and iteration count it came from."""

    __slots__ = ()


def _check_weights(problem: SearchProblem, x: np.ndarray) -> np.ndarray:
    import numpy as np

    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (problem.n_vars,):
        raise ValueError(f"expected {problem.n_vars} weights, got shape {x.shape}")
    return x


def _products(vals: np.ndarray):
    """(real, imag) of the products down the columns of vals, shape (width, M):
    ``np.multiply.reduce(vals.T, axis=1)`` bit for bit, up to the sign of a NaN.

    That reduce runs numpy's scalar complex-multiply loop, a running product
    from 1 + 0j with each real operation rounded on its own; its first step is
    written here without the multiplications by 1.
    """
    import numpy as np

    if not len(vals):  # n = 0: the one empty matching weighs 1
        return np.ones(vals.shape[1]), np.zeros(vals.shape[1])
    re, im = vals.real, vals.imag
    pr = re[0] - 0.0 * im[0]
    pi = im[0] + 0.0 * re[0]
    for j in range(1, len(vals)):
        pr, pi = pr * re[j] - pi * im[j], pr * im[j] + pi * re[j]
    return pr, pi


def _evaluate(problem: SearchProblem, x: np.ndarray):
    """(vals, diff, f) at x: vals[j, m] = x[monomials[m, j]],
    diff[vc] = w_vc - t_vc and f the residual."""
    import numpy as np

    vals = x[problem._columns]  # (width, M)
    pr, pi = _products(vals)
    groups = len(problem.targets)
    w = np.empty(groups, dtype=np.complex128)
    w.real = np.bincount(problem.monomial_group, pr, minlength=groups)
    w.imag = np.bincount(problem.monomial_group, pi, minlength=groups)
    diff = w - problem.targets
    return vals, diff, float(np.add.reduce(diff.real**2 + diff.imag**2))


def _gradient(problem: SearchProblem, vals: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """The complex-packed gradient from a point's ``_evaluate`` output."""
    import numpy as np

    width = len(vals)
    pre = np.empty_like(vals)
    suf = np.empty_like(vals)
    pre[:1] = 1  # slices, not rows: width is 0 when n = 0
    suf[-1:] = 1
    for j in range(1, width):
        np.multiply(pre[j - 1], vals[j - 1], out=pre[j])
        np.multiply(suf[width - j], vals[width - j], out=suf[width - 1 - j])
    leave_one_out = np.multiply(pre, suf, out=pre)
    np.conjugate(leave_one_out, out=leave_one_out)
    np.multiply(leave_one_out, diff[problem.monomial_group], out=leave_one_out)
    terms = leave_one_out.T.ravel()  # monomial-major, the order the sums add in
    index = problem.monomials.ravel()
    grad = np.empty(problem.n_vars, dtype=np.complex128)
    grad.real = np.bincount(index, terms.real, minlength=problem.n_vars)
    grad.imag = np.bincount(index, terms.imag, minlength=problem.n_vars)
    return 2.0 * grad


def residual(problem: SearchProblem, weights) -> Residual:
    """Residual value plus the |w_vc - t_vc|^2 contribution per colouring."""
    _, diff, f = _evaluate(problem, _check_weights(problem, weights))
    contributions = diff.real**2 + diff.imag**2
    per = {vc: float(c) for vc, c in zip(problem.colourings, contributions)}
    return Residual(f, per)


def gradient(problem: SearchProblem, weights) -> np.ndarray:
    """Complex-packed gradient: (d/dRe x_k) + i (d/dIm x_k) of the residual."""
    vals, diff, _ = _evaluate(problem, _check_weights(problem, weights))
    return _gradient(problem, vals, diff)


def _descend(problem: SearchProblem, x: np.ndarray, max_iters: int, tol: float):
    """Backtracking gradient descent from one starting point."""
    import numpy as np

    vals, diff, f = _evaluate(problem, x)
    step = 0.1
    iterations = 0
    for iterations in range(1, max_iters + 1):
        if f <= tol:
            break
        g = _gradient(problem, vals, diff)
        gnorm2 = float(np.add.reduce(g.real**2 + g.imag**2))
        if gnorm2 < 1e-24:
            break
        while step > 1e-18:
            candidate = x - step * g
            c_vals, c_diff, f_new = _evaluate(problem, candidate)
            if f_new <= f - 1e-4 * step * gnorm2:
                x, vals, diff, f = candidate, c_vals, c_diff, f_new
                step *= 2.0
                break
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
    (seed, r): weights uniform on the unit disc.  The first restart to
    reach ``tol`` wins outright; otherwise the lowest residual does, earlier
    restarts breaking ties.
    """
    import numpy as np

    for name, value, low in (("seed", seed, 0), ("restarts", restarts, 1), ("max_iters", max_iters, 0)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    best_x = None
    best_f = math.inf
    best_restart = 0
    best_iters = 0
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        radius = np.sqrt(rng.random(problem.n_vars))
        angle = rng.random(problem.n_vars) * 2.0 * math.pi
        x0 = radius * np.exp(1j * angle)
        x, f, iters = _descend(problem, x0, max_iters, tol)
        if f < best_f:
            best_x, best_f, best_restart, best_iters = x, f, r, iters
        if best_f <= tol:
            break
    return SearchResult(
        weights=best_x,
        residual=residual(problem, best_x),
        converged=best_f <= tol,
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


def exactify(problem: SearchProblem, weights, epsilon: float | None = None) -> Exactification:
    """Certify an assignment exactly when possible, numerically otherwise.

    The rounding is fixed: when every weight lies within 1e-9 of the
    nearest Gaussian rational with denominators up to 10**6, the rounded
    weights are re-verified with exact arithmetic, and if that confirms a
    GHZ graph of full dimension the verdict is exact.  Anything else falls
    back to a float verdict at ``epsilon``, by default a tolerance
    reflecting the achieved residual.
    """
    x = _check_weights(problem, weights)
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
    _, _, achieved = _evaluate(problem, x)
    eps = epsilon if epsilon is not None else max(DEFAULT_EPSILON, 2.0 * math.sqrt(achieved))
    return Exactification(float_graph, verify(float_graph, eps), "numeric", eps)
