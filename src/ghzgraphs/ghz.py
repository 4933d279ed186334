"""GHZ verification, dimension, weight scaling and the non-mono witness.

A graph is GHZ when every feasible monochromatic colouring has weight
exactly 1 and every non-monochromatic colouring has weight 0; it is g-GHZ
when the monochromatic weights merely have to be non-zero.  A feasible
monochromatic colouring whose matchings cancel to weight exactly 0 breaks
the strict property (0 != 1) but is tolerated by g-GHZ and never counts
toward the dimension; such entries are reported with kind "mono_zero" so
both readings stay visible.

Exact graphs are checked with exact comparisons; float graphs (from
scale_to_ghz or the search) within a tolerance epsilon.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .errors import BogdanovHypothesisError, InvariantViolation, NotGhzError, UnscalableColourError
from .exact import DEFAULT_EPSILON, _as_tolerance
from .graphs import Colour, Edge, Multigraph, VertexColouring, drop_zero_edges, mono_colouring
from .matchings import (
    PerfectMatching,
    _iter_perfect_matchings,
    colouring_weight_table,
    induced_colouring,
    is_feasible,
)

#: violation kinds, in the order they are reported
NON_MONO_NONZERO = "non_mono_nonzero"  # breaks GHZ and g-GHZ
MONO_NOT_ONE = "mono_not_one"          # breaks GHZ only
MONO_ZERO = "mono_zero"                # breaks GHZ only, tolerated by g-GHZ


class Violation(namedtuple("Violation", "colouring weight kind")):
    """A colouring (VertexColouring) whose weight breaks GHZ, and which kind of break."""

    __slots__ = ()


class GhzVerdict(namedtuple("GhzVerdict", "is_ghz is_g_ghz dimension violations")):
    """The two flags, the dimension (int) and a tuple of Violation, in report order."""

    __slots__ = ()


def _is_mono(vc: VertexColouring) -> bool:
    return len(set(vc)) <= 1


def verify(g: Multigraph, epsilon: float = DEFAULT_EPSILON) -> GhzVerdict:
    """Classify every feasible colouring and every mono colouring of g.

    ``epsilon`` only matters for float-weighted graphs; exact graphs are
    compared exactly, but an ``epsilon`` that is negative, NaN, a bool
    (numpy's too), an array with dimensions or anything that does not
    compare with 0 raises ``ValueError`` either way, by the tolerance rule
    that ``search``'s tol follows too.  The dimension field counts
    monochromatic colourings with non-zero weight regardless of the verdict
    flags.
    """
    epsilon = _as_tolerance(epsilon, "epsilon")
    table = colouring_weight_table(g)
    exact = g.is_exact
    zero, one = g.zero, g.one

    def near(w, target) -> bool:
        if exact:
            return w == target
        return abs(w - target) <= epsilon

    # the mono keys of the table; () is mono and is the only key when n = 0,
    # even with an empty universe, and no key when n > 0
    monos = {()}
    mono_violations: list[Violation] = []
    dimension = 0
    for colour in sorted(g.colour_universe):
        vc = mono_colouring(g.n, colour)
        if vc not in table:
            continue  # infeasible mono colouring: no constraint
        monos.add(vc)
        w = table[vc]
        if near(w, zero):
            mono_violations.append(Violation(vc, w, MONO_ZERO))
            continue
        dimension += 1
        if not near(w, one):
            mono_violations.append(Violation(vc, w, MONO_NOT_ONE))
    # one pass over the table, "non-zero" tested inline; a NaN is non-zero.
    # Each Violation is built by tuple.__new__, past the namedtuple's
    # Python-level __new__: the same object for less.
    new = tuple.__new__
    if exact:
        non_mono = [new(Violation, (vc, w, NON_MONO_NONZERO)) for vc, w in table.items()
                    if w and vc not in monos]
    else:
        non_mono = [new(Violation, (vc, w, NON_MONO_NONZERO)) for vc, w in table.items()
                    if not abs(w) <= epsilon and vc not in monos]
    violations = non_mono + mono_violations
    return GhzVerdict(
        is_ghz=not violations,
        is_g_ghz=not non_mono,
        dimension=dimension,
        violations=tuple(violations),
    )


def dimension(g: Multigraph, epsilon: float = DEFAULT_EPSILON) -> int:
    """Number of non-zero monochromatic colourings; defined for g-GHZ graphs."""
    verdict = verify(g, epsilon)
    if not verdict.is_g_ghz:
        raise NotGhzError("not a (g-)GHZ graph: a non-monochromatic colouring has non-zero weight")
    return verdict.dimension


def mono_weights(g: Multigraph) -> dict[Colour, object]:
    """Weight of the all-i colouring for every colour i in the universe."""
    table = colouring_weight_table(g)
    return {
        colour: table.get(mono_colouring(g.n, colour), g.zero)
        for colour in sorted(g.colour_universe)
    }


def _to_complex(w, what: str, which) -> complex:
    """complex(w), refusing a weight that overflows a float or underflows to 0."""
    try:
        z = complex(w)
    except OverflowError:
        z = 0j  # refused below, since w is not 0
    if w and not z:
        raise ValueError(f"the {what} {which} lies outside the complex float range")
    return z


def scale_to_ghz(g: Multigraph, epsilon: float = DEFAULT_EPSILON) -> Multigraph:
    """Rescale a g-GHZ graph's weights so it becomes GHZ, in complex floats.

    Every edge weight is multiplied by s_cu * s_cv with
    s_i = exp(-Log W(i) / n), W(i) the weight of the all-i colouring; the
    weight of each colouring then picks up the factor prod_v s_vc(v), which
    sends every non-zero mono weight to 1 and leaves zeros zero.  Colours
    whose mono weight is 0 get s_i = 1, unless an edge carrying that colour
    sits in a perfect matching of non-zero weight -- then no finite scale
    exists and the colour is reported as unscalable.  A matching has
    non-zero weight iff its edges do, so the colours of such matchings are
    the colours of g's table without its zero edges, cancelled keys
    included; no matching is listed.  A dead colour whose all-i colouring
    is feasible is unscalable too: scaling keeps that weight 0, and GHZ
    needs it to be 1.  Those are the colours of the verdict's "mono_zero"
    violations, as exact weights are compared exactly.  A weight that a
    complex float cannot hold (it overflows, or it is non-zero and underflows
    to 0) raises ``ValueError`` naming that weight.
    """
    if not g.is_exact:
        raise ValueError("scaling expects an exact-weighted graph")
    verdict = verify(g, epsilon)
    if not verdict.is_g_ghz:
        raise NotGhzError("not a g-GHZ graph; scaling is undefined")
    if g.n == 0:
        return Multigraph(0, (), g.colour_universe)

    weights = mono_weights(g)
    dead = {c for c, w in weights.items() if w == g.zero}
    if dead:
        live_colours = {c for vc in colouring_weight_table(drop_zero_edges(g)) for c in vc}
        bad = sorted(dead & live_colours)
        if bad:
            raise UnscalableColourError(
                f"unscalable colour {bad[0]}: zero monochromatic weight but "
                f"present in a non-zero-weight perfect matching"
            )
        stuck = [v.colouring[0] for v in verdict.violations if v.kind == MONO_ZERO]
        if stuck:
            raise UnscalableColourError(
                f"unscalable colour {stuck[0]}: its monochromatic colouring is "
                f"feasible with weight 0, and no scaling makes that weight 1"
            )

    scale = {}
    for colour, w in weights.items():
        if w == g.zero:
            scale[colour] = 1.0 + 0.0j
        else:
            z = _to_complex(w, "monochromatic weight of colour", colour)
            scale[colour] = cmath.exp(-cmath.log(z) / g.n)

    edges = tuple(
        Edge(e.u, e.v, e.cu, e.cv,
             _to_complex(e.weight, "weight of edge", k) * scale[e.cu] * scale[e.cv])
        for k, e in enumerate(g.edges)
    )
    scaled = Multigraph(g.n, edges, g.colour_universe)
    check = verify(scaled, epsilon)
    if not check.is_ghz:
        raise InvariantViolation(
            f"scaled graph failed the GHZ check at epsilon={epsilon}: {check.violations[:3]}"
        )
    if check.dimension != verdict.dimension:
        raise InvariantViolation("scaling changed the dimension")
    return scaled


def find_bogdanov_witness(g: Multigraph) -> PerfectMatching:
    """A non-monochromatic perfect matching, given the theorem's hypotheses.

    Requires more than four vertices and at least three monochromatic
    perfect matchings of pairwise distinct colours; a non-monochromatic
    perfect matching then necessarily exists.  Weights play no role here.
    The mono colours are counted by feasibility checks, so a failing
    hypothesis is reported without listing matchings; the witness is the
    first non-mono matching in enumeration order, and the search stops
    there without listing the matchings after it.
    """
    if g.n <= 4:
        raise BogdanovHypothesisError("hypothesis needs more than four vertices")
    mono_count = sum(is_feasible(g, mono_colouring(g.n, c)) for c in g.colour_universe)
    if mono_count < 3:
        raise BogdanovHypothesisError(
            f"hypothesis needs monochromatic perfect matchings of three distinct "
            f"colours, found {mono_count}"
        )
    for m in _iter_perfect_matchings(g):
        if not _is_mono(induced_colouring(g, m)):
            return m
    raise InvariantViolation("no non-monochromatic perfect matching found")
