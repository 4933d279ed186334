"""Shared corpus builders and independent brute-force oracles.

Every random object is derived from random.Random with a fixed seed, so the
whole suite sees the same corpus on every run.  The oracles here deliberately
avoid the library's own enumeration/flow code: pairings are generated by a
direct recursion over vertex lists and connectivity by subset enumeration,
so the two routes can disagree when one of them is wrong.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

import ghzgraphs as gz
from ghzgraphs import (
    DEFAULT_EPSILON,
    GaussianRational,
    GhzVerdict,
    InducedSubgraph,
    Multigraph,
    Violation,
    build_graph,
    colouring_weight_table,
    complete_ghz_k4,
    cycle_ghz,
    cycle_ghz_on,
    induced_subgraph,
    make_cut,
    parallel_ghz_k2,
)
from ghzgraphs.cli import (
    _cmd_bogdanov,
    _cmd_connectivity,
    _cmd_cut,
    _cmd_dimension,
    _cmd_drop_zeros,
    _cmd_filter,
    _cmd_mcg,
    _cmd_merge,
    _cmd_reduce,
    _cmd_scale,
    _cmd_search,
    _cmd_verify,
    _cmd_weights,
    _int,
)
from ghzgraphs.exact import _make, _parts
from ghzgraphs.ghz import MONO_NOT_ONE, MONO_ZERO, NON_MONO_NONZERO
from ghzgraphs.matchings import _weight_table

# ---------------------------------------------------------------------------
# a fresh interpreter


def fresh_interpreter(script, *args):
    """Run ``script`` in a new interpreter on this checkout's sources: the
    test session has numpy and every ghzgraphs module loaded already.

    The interpreter runs with ``-S``: it skips ``site`` and the ``.pth``
    files it reads, which may import modules such as ``typing`` first, so
    every module a script sees loaded was loaded by the script or the
    library.  ``-S`` also drops site-packages from the path, so the path is
    ``src`` and then the directory that holds the ``numpy`` package."""
    src = Path(__file__).resolve().parent.parent / "src"
    packages = Path(np.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(packages)])),
        capture_output=True,
        text=True,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# the declared console script


@pytest.fixture(scope="session")
def console_script(tmp_path_factory):
    """Put a ``ghzgraphs`` executable for this checkout first on PATH.

    The target is read from ``[project.scripts]`` in the repository's
    pyproject.toml, so the CLI tests run the script this checkout declares
    whether or not the package is installed, and never a stale install found
    earlier on PATH.  The launcher is a /bin/sh wrapper that execs the test
    interpreter, which imports the target and exits with its return value.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ghzgraphs"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    bin_dir = tmp_path_factory.mktemp("bin")
    script = bin_dir / "ghzgraphs"
    script.write_text(
        f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -c {shlex.quote(code)} "$@"\n'
    )
    script.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield script


# ---------------------------------------------------------------------------
# the CLI's argparse parser


def slow_build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, which ``ghzgraphs.cli.parse_args`` replaced:
    the reference its exit codes and attributes are tested against."""
    parser = argparse.ArgumentParser(
        prog="ghzgraphs",
        description="Exact analysis of edge-coloured weighted multigraphs via perfect matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        """The command's parser, with the positional ``file`` but for ``search``."""
        p = sub.add_parser(name, help=help_text)
        # a negative number in exponent form ("-1e-3") is an option's value,
        # not an option name, as in later CPython releases
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(func=func)
        if name != "search":
            p.add_argument("file")
        return p

    p = add("verify", _cmd_verify, "check the GHZ / g-GHZ property")
    p.add_argument("--g-ghz", action="store_true", help="gate on the generalized property (default: strict)")
    p.add_argument("--epsilon", type=float, default=gz.DEFAULT_EPSILON)

    p = add("dimension", _cmd_dimension, "number of non-zero monochromatic colourings")
    p.add_argument("--epsilon", type=float, default=gz.DEFAULT_EPSILON)

    p = add("weights", _cmd_weights, "colouring-weight table, or one colouring's weight")
    p.add_argument("--colouring", help="comma-separated colours, one per vertex")

    p = add("filter", _cmd_filter, "keep edges matching a vertex colouring")
    p.add_argument("--colouring", required=True)

    add("mcg", _cmd_mcg, "drop edges lying in no perfect matching")
    add("merge", _cmd_merge, "merge parallel edges of equal colour class")
    add("drop-zeros", _cmd_drop_zeros, "drop edges of weight exactly zero")
    add("connectivity", _cmd_connectivity, "vertex connectivity of the skeleton")

    p = add("cut", _cmd_cut, "find a small vertex cut")
    p.add_argument("--size", type=_int, default=3)

    p = add("reduce", _cmd_reduce, "reduce across a 3-cut with an odd block")
    p.add_argument("--all-cuts", action="store_true",
                   help="scan the odd cuts for the smallest result, stopping once the best has "
                        "4 vertices and 2k edges (k: the dimension of a g-GHZ input, else 0)")
    p.add_argument("--no-check", action="store_true", help="skip the runtime identity checks")

    p = add("scale", _cmd_scale, "rescale a g-GHZ graph to a strict GHZ one")
    p.add_argument("--epsilon", type=float, default=gz.DEFAULT_EPSILON)

    add("bogdanov", _cmd_bogdanov, "find a non-monochromatic perfect matching")

    p = add("search", _cmd_search, "search for a GHZ assignment on a skeleton")
    p.add_argument("--skeleton", required=True, dest="file", metavar="SKELETON")
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--restarts", type=_int, default=20)
    p.add_argument("--iters", type=_int, default=2000)
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


# ---------------------------------------------------------------------------
# weights


def small_rational(rng: random.Random, zero_ok: bool = False) -> GaussianRational:
    """A small Gaussian rational; complex or negative about half the time."""
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else Fraction(0)
        w = GaussianRational(re, im)
        if zero_ok or w:
            return w


# ---------------------------------------------------------------------------
# random multigraphs (n <= 8, <= 14 edges, <= 3 colours)


def random_multigraph(seed: int) -> Multigraph:
    rng = random.Random(f"multigraph-{seed}")
    n = rng.choice([2, 3, 4, 4, 5, 6, 6, 7, 8, 8])
    d = rng.randint(1, 3)
    specs = []
    for _ in range(rng.randint(1, 14)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while n > 1 and v == u:
            v = rng.randrange(n)
        if u == v:
            continue
        specs.append((u, v, rng.randrange(d), rng.randrange(d), small_rational(rng)))
    return build_graph(n, specs, colours=range(d))


def random_corpus(count: int = 100) -> list[Multigraph]:
    return [random_multigraph(seed) for seed in range(count)]


def planted_matching_graph(seed: int) -> Multigraph:
    """Random multigraph with at least one perfect matching planted."""
    rng = random.Random(f"planted-pm-{seed}")
    n = rng.choice([4, 6, 8])
    d = rng.randint(1, 3)
    verts = list(range(n))
    rng.shuffle(verts)
    specs = [
        (verts[i], verts[i + 1], rng.randrange(d), rng.randrange(d), small_rational(rng))
        for i in range(0, n, 2)
    ]
    for _ in range(rng.randint(0, 14 - n // 2)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, rng.randrange(d), rng.randrange(d), small_rational(rng)))
    return build_graph(n, specs, colours=range(d))


# ---------------------------------------------------------------------------
# instances with a planted 3-cut [V1 | S | V2], no V1-V2 edges, |V1| odd


def planted_cut_instance(seed: int):
    """Returns (graph, cut).  Layout: V1 = 0..n1-1, S next three, V2 the rest.

    One type-i perfect matching is always planted; for |V1| = 3 a type-0 one
    is planted too, so every term of the four-way split gets exercised.  The
    colour count shrinks as the graph grows to keep the full block-constant
    sweep cheap.
    """
    rng = random.Random(f"planted-cut-{seed}")
    n1 = rng.choice([1, 1, 3])
    n2 = rng.choice([2, 4]) if n1 == 1 else 2
    n = n1 + 3 + n2
    d = rng.randint(1, 3) if n <= 6 else rng.randint(1, 2)
    v1 = list(range(n1))
    s = list(range(n1, n1 + 3))
    v2 = list(range(n1 + 3, n))

    def edge(u, v):
        return (u, v, rng.randrange(d), rng.randrange(d), small_rational(rng))

    specs = []
    # planted type-i matching: u_i into V1, the other two cut vertices paired
    # with each other or into V2
    u1, u2, u3 = s
    specs.append(edge(u1, rng.choice(v1)))
    left = [x for x in v1 if x != specs[-1][1]]
    rng.shuffle(left)
    specs += [edge(left[i], left[i + 1]) for i in range(0, len(left), 2)]
    if n2 == 2:
        specs.append(edge(u2, u3))
        specs.append(edge(v2[0], v2[1]))
    else:
        specs.append(edge(u2, v2[0]))
        specs.append(edge(u3, v2[1]))
        specs.append(edge(v2[2], v2[3]))
    if n1 == 3:
        # planted type-0 matching: all of S into V1, V2 paired internally
        order = v1[:]
        rng.shuffle(order)
        specs += [edge(ui, x) for ui, x in zip(s, order)]
        specs.append(edge(v2[0], v2[1]))
    # random chaff on both sides of the cut
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(v1 + s, 2)
        specs.append(edge(u, v))
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(v2 + s, 2)
        specs.append(edge(u, v))

    g = build_graph(n, specs, colours=range(d))
    return g, make_cut(g, s, v1, v2)


def planted_cut_corpus(count: int = 50):
    return [planted_cut_instance(seed) for seed in range(count)]


# ---------------------------------------------------------------------------
# weighted cycles and the hard-case family


def weighted_cycle(seed, order) -> Multigraph:
    """Cycle instance with random weights whose two alternating colour-class
    products are both 1, so the graph is GHZ of dimension 2."""
    rng = random.Random(f"weighted-cycle-{seed}")
    n = len(order)
    ws = [small_rational(rng) for _ in range(n)]
    even_head = ws[0:n - 2:2]
    odd_head = ws[1:n - 1:2]
    prod_e = GaussianRational(1)
    for w in even_head:
        prod_e = prod_e * w
    prod_o = GaussianRational(1)
    for w in odd_head:
        prod_o = prod_o * w
    ws[n - 2] = GaussianRational(1) / prod_e
    ws[n - 1] = GaussianRational(1) / prod_o
    return cycle_ghz_on(order, ws)


HARD_ORDER = (0, 3, 6, 7, 4, 1, 2, 5)  # 8-cycle traversal; {3,4,5} cuts off {0,1,2}


def hard_family_member(seed: int, split: bool = False):
    """Returns (graph, cut) for the eight-vertex hard-case family.

    The cut S = {3,4,5} separates the odd block {0,1,2} from {6,7}; the only
    induced edge on {6,7} is monochromatic of colour 0, which puts colour 0
    in C1 and colour 1 in C2.  With ``split`` one cycle edge is torn into two
    parallel edges of the same colour class summing to the original weight.
    """
    g = weighted_cycle(f"hard-{seed}", HARD_ORDER)
    if split:
        rng = random.Random(f"hard-split-{seed}")
        k = rng.randrange(len(g.edges))
        e = g.edges[k]
        a = small_rational(rng)
        while a == e.weight:
            a = small_rational(rng)
        specs = [(f.u, f.v, f.cu, f.cv, f.weight) for f in g.edges]
        specs[k] = (e.u, e.v, e.cu, e.cv, a)
        specs.append((e.u, e.v, e.cu, e.cv, e.weight - a))
        g = build_graph(g.n, specs, colours=g.colour_universe)
    return g, make_cut(g, (3, 4, 5), (0, 1, 2), (6, 7))


def hard_family(count: int = 12):
    return [hard_family_member(seed, split=seed % 3 == 2) for seed in range(count)]


def cycle_cases():
    """Plain and weighted 6-, 8- and 10-cycles: every non-adjacent pair is a
    2-cut and every three pairwise non-adjacent vertices a 3-cut."""
    return [g for n in (6, 8, 10) for g in (cycle_ghz(n), weighted_cycle(f"cycle-{n}", range(n)))]


# ---------------------------------------------------------------------------
# g-GHZ corpus: GHZ graphs times a non-zero rational per colour class


def ghz_corpus():
    """Named GHZ instances reused across sweeps."""
    return [
        ("k4", complete_ghz_k4()),
        ("k2x2", parallel_ghz_k2(2)),
        ("k2x5", parallel_ghz_k2(5)),
        ("c6", cycle_ghz(6)),
        ("c8", cycle_ghz(8)),
        ("c6w", weighted_cycle(1, range(6))),
        ("c8w", weighted_cycle(2, range(8))),
        ("c8-hard", hard_family_member(0)[0]),
        ("c8-hard-split", hard_family_member(5, split=True)[0]),
    ]


def scaled_ghz_instance(seed: int):
    """A GHZ corpus member with every edge weight multiplied by s_cu * s_cv
    for seeded non-zero rationals s_i: g-GHZ of the same dimension, and the
    exact inverse image of what the scaling operation must reconstruct."""
    bases = ghz_corpus()
    name, base = bases[seed % len(bases)]
    rng = random.Random(f"scale-{seed}")
    s = {c: small_rational(rng) for c in sorted(base.colour_universe)}
    specs = [
        (e.u, e.v, e.cu, e.cv, e.weight * s[e.cu] * s[e.cv])
        for e in base.edges
    ]
    return name, build_graph(base.n, specs, colours=base.colour_universe)


def scale_corpus(count: int = 20):
    return [scaled_ghz_instance(seed) for seed in range(count)]


# ---------------------------------------------------------------------------
# Bogdanov corpus: three planted monochromatic pairings of distinct colours


def bogdanov_instance(seed: int) -> Multigraph:
    rng = random.Random(f"bogdanov-{seed}")
    n = rng.choice([6, 8, 10])
    specs = []
    for colour in range(3):
        verts = list(range(n))
        rng.shuffle(verts)
        specs += [
            (verts[i], verts[i + 1], colour, colour, 1)
            for i in range(0, n, 2)
        ]
    for _ in range(rng.randint(0, 6)):
        u, v = rng.sample(range(n), 2)
        specs.append((u, v, rng.randrange(3), rng.randrange(3), 1))
    return build_graph(n, specs, colours=range(3))


def bogdanov_corpus(count: int = 100):
    return [bogdanov_instance(seed) for seed in range(count)]


# ---------------------------------------------------------------------------
# the corpus the kernel-based yes/no checks are compared with enumeration on


def with_zero_edges(g: Multigraph, seed) -> Multigraph:
    """g plus one to three weight-0 edges on random pairs and colour classes."""
    rng = random.Random(f"zero-edges-{seed}")
    colours = sorted(g.colour_universe) or [0]
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(range(g.n), 2)
        specs.append((u, v, rng.choice(colours), rng.choice(colours), 0))
    return build_graph(g.n, specs, colours=set(colours) | g.colour_universe)


def with_cancelling_pairs(g: Multigraph, seed) -> Multigraph:
    """g plus one or two parallel pairs of one colour class with weights w, -w."""
    rng = random.Random(f"cancelling-pairs-{seed}")
    colours = sorted(g.colour_universe) or [0]
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    for _ in range(rng.randint(1, 2)):
        u, v = rng.sample(range(g.n), 2)
        cu, cv, w = rng.choice(colours), rng.choice(colours), small_rational(rng)
        specs += [(u, v, cu, cv, w), (u, v, cu, cv, -w)]
    return build_graph(g.n, specs, colours=set(colours) | g.colour_universe)


def as_float(g: Multigraph) -> Multigraph:
    """g with every weight converted to a complex float."""
    specs = [(e.u, e.v, e.cu, e.cv, complex(e.weight)) for e in g.edges]
    return build_graph(g.n, specs, colours=g.colour_universe)


def enumeration_corpus() -> list[Multigraph]:
    """The conftest corpora, their perturbed copies and the small edge cases.

    274 corpus graphs, each again with zero-weight edges added and with
    cancelling parallel pairs added, then odd n, n = 0, n = 2 and a graph
    with an isolated vertex.
    """
    base = (
        random_corpus(100)
        + [planted_matching_graph(seed) for seed in range(12)]
        + [g for g, _ in planted_cut_corpus(50)]
        + [g for g, _ in hard_family(12)]
        + bogdanov_corpus(100)
    )
    edge_cases = [
        build_graph(5, [(0, 1, 0, 0, 1), (2, 3, 0, 0, 1), (3, 4, 0, 0, 1)]),
        build_graph(0, [], colours=range(2)),
        build_graph(2, [(0, 1, 0, 1, 1), (0, 1, 1, 1, 2)]),
        build_graph(4, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1), (0, 2, 1, 1, 1)]),
    ]
    return (
        base
        + [with_zero_edges(g, k) for k, g in enumerate(base)]
        + [with_cancelling_pairs(g, k) for k, g in enumerate(base)]
        + edge_cases
    )


# ---------------------------------------------------------------------------
# independent oracles


def bits(vertices) -> int:
    """The bit mask of a vertex set, as the weight kernel takes it."""
    return sum(1 << x for x in vertices)


def slow_cut_block(g: Multigraph, vertices, cut_vertices=()) -> InducedSubgraph:
    """G[vertices] without the edges joining two vertices of ``cut_vertices``,
    as a relabelled copy: how every cut block was formed before the weight
    kernel read blocks in place through its vertex and cut masks."""
    sub, kept = induced_subgraph(g, vertices)
    inner = {r for r, x in enumerate(kept) if x in cut_vertices}
    if len(inner) < 2:
        return InducedSubgraph(sub, kept)
    edges = tuple(e for e in sub.edges if e.u not in inner or e.v not in inner)
    return InducedSubgraph(Multigraph(sub.n, edges, sub.colour_universe), kept)


def slow_filter_graph(g: Multigraph, vc) -> Multigraph:
    """A copy of g with exactly the edges whose half-colours agree with vc
    at both ends, by its own test: ``filter_graph`` shares its test with the
    weight kernel's colouring mask, so it is no reference for that mask."""
    return Multigraph(g.n, [e for e in g.edges if e.cu == vc[e.u] and e.cv == vc[e.v]], g.colour_universe)


def slow_block_weight(g: Multigraph, vertices, colour_of, cut_vertices=()):
    """The weight on G[vertices], without the edges joining two vertices of
    ``cut_vertices``, of the colouring that paints each vertex x with
    ``colour_of(x)``: how the squares and the 3-cut type weights read each
    block before the weight kernel took a colouring mask, with a whole
    colouring and a filtered copy of g per block."""
    vc = tuple(colour_of(x) for x in range(g.n))
    kept = sorted(vertices)
    table = _weight_table(slow_filter_graph(g, vc), bits(kept), bits(cut_vertices))
    return table.get(tuple(vc[x] for x in kept), g.zero)


def slow_colouring_weight(g: Multigraph, vc) -> tuple:
    """(``colouring_weight``, ``is_feasible``) of vc as they were before the
    weight kernel took a colouring mask: read from the whole table of a copy
    of g filtered by vc, g's zero when vc is not in it."""
    table = _weight_table(slow_filter_graph(g, vc))
    return table.get(tuple(vc), g.zero), bool(table)


def slow_project(table: dict, owner: list, factors: dict, zero) -> dict:
    """``reduction._project`` as it was before it skipped empty tables and
    started each sum at its first entry: the positions of the reduced
    vertices by ``owner.index`` and every sum started at ``zero``."""
    first = {r: owner.index(r) for r in set(owner)}
    spread = itemgetter(*(first[r] for r in owner))
    key_of = itemgetter(*(first[r] for r in sorted(first.keys() - {None})))
    v2 = first.get(None)
    sums: dict = {}
    for vc, w in table.items():
        if spread(vc) == vc:
            key = key_of(vc)
            sums[key] = sums.get(key, zero) + (w if v2 is None else w * factors[vc[v2]])
    return sums


def weight_bits(w):
    """A weight's type and exact parts: a ``GaussianRational``'s unreduced
    integers, a complex float's real and imaginary parts in hex."""
    if isinstance(w, GaussianRational):
        return type(w), w._v
    return type(w), w.real.hex(), w.imag.hex()


def slow_from_parts(re_num: int, re_den: int, im_num: int = 0, im_den: int = 1) -> GaussianRational:
    """``GaussianRational.from_parts`` as it was before lowest terms came from
    ``math.gcd``: each part reduced by ``Fraction``, both put over the lcm of
    their denominators."""
    re, im = Fraction(re_num, re_den), Fraction(im_num, im_den)
    den = math.lcm(re.denominator, im.denominator)
    return _make((re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den))


def slow_add(x: GaussianRational, other):
    """``GaussianRational.__add__`` (and ``__radd__``) as it was, with a path
    for an operand of exactly that type and one for equal denominators."""
    if type(other) is GaussianRational:
        c, d, q = other._v
    else:
        other = _parts(other)
        if other is None:
            return NotImplemented
        c, d, q = other
    a, b, p = x._v
    if p == q:
        return _make((a + c, b + d, p))
    k = math.gcd(p, q)
    s, t = q // k, p // k  # p * s == q * t == lcm(p, q)
    return _make((a * s + c * t, b * s + d * t, p * s))


def slow_mul(x: GaussianRational, other):
    """``GaussianRational.__mul__`` (and ``__rmul__``) as it was, with a path
    for an operand of exactly that type."""
    if type(other) is GaussianRational:
        c, d, q = other._v
    else:
        other = _parts(other)
        if other is None:
            return NotImplemented
        c, d, q = other
    a, b, p = x._v
    return _make((a * c - b * d, a * d + b * c, p * q))


def slow_eq(x: GaussianRational, other):
    """``GaussianRational.__eq__`` as it was, comparing equal denominators'
    parts without cross-multiplying."""
    other = _parts(other)
    if other is None:
        return NotImplemented
    a, b, p = x._v
    c, d, q = other
    if p == q:
        return a == c and b == d
    return a * q == c * p and b * q == d * p


def slow_weight_to_strings(w) -> list[str]:
    """``io.weight_to_strings`` as it was, reading an exact weight's parts as
    ``Fraction``s in lowest terms."""
    if isinstance(w, GaussianRational):
        re, im = w.re, w.im
        return [str(re.numerator), str(re.denominator), str(im.numerator), str(im.denominator)]
    return [repr(w.real), repr(w.imag)]


def slow_weight_table(g: Multigraph, vertices: int = -1, cut: int = 0) -> dict:
    """The weight kernel as it was before keys were decoded by halves and
    before exact weights ran through the DP as int triples: one subset DP
    on the weights' own + and *, exact and float, then one divmod per kept
    vertex for every key."""
    n = g.n
    full = (1 << n) - 1
    outside = full & ~vertices
    merged = {}
    touched = outside
    for e in g.edges:
        ends = 1 << e.u | 1 << e.v
        if ends & outside or ends & cut == ends:
            continue
        edge_class = (e.u, e.v, e.cu, e.cv)
        merged[edge_class] = merged[edge_class] + e.weight if edge_class in merged else e.weight
        touched |= ends
    if (full & vertices).bit_count() % 2 or touched != full:
        return {}
    base = 1 + max((c for _, _, cu, cv in merged for c in (cu, cv)), default=0)
    kept = [v for v in range(n) if vertices >> v & 1]
    places = [base**i for i in range(len(kept) - 1, -1, -1)]
    place = dict(zip(kept, places))
    below = [[] for _ in range(n)]
    for (u, v, cu, cv), w in merged.items():
        below[u].append((1 << v, cu * place[u] + cv * place[v], w))
    memo = {full: {0: g.one}}

    def solve(covered):
        table = memo.get(covered)
        if table is not None:
            return table
        low = ~covered & (covered + 1)
        table = {}
        for bit, digits, w in below[low.bit_length() - 1]:
            if covered & bit:
                continue
            for key, sub in solve(covered | low | bit).items():
                key += digits
                prev = table.get(key)
                table[key] = w * sub if prev is None else prev + w * sub
        memo[covered] = table
        return table

    out = {}
    for key, w in sorted(solve(outside).items()):
        colours = []
        for p in places:
            c, key = divmod(key, p)
            colours.append(c)
        out[tuple(colours)] = w
    return out


def slow_verify(g: Multigraph, epsilon: float = DEFAULT_EPSILON) -> GhzVerdict:
    """``verify`` as it was before its one-pass loop: a set per entry for the
    mono test and a closure call per entry for the zero test."""
    table = colouring_weight_table(g)
    exact = g.is_exact
    zero, one = g.zero, g.one

    def near(w, target) -> bool:
        if exact:
            return w == target
        return abs(w - target) <= epsilon

    violations = []
    dimension = 0
    for vc, w in table.items():
        if len(set(vc)) <= 1:
            continue
        if not near(w, zero):
            violations.append(Violation(vc, w, NON_MONO_NONZERO))
    for colour in sorted(g.colour_universe):
        vc = (colour,) * g.n
        if vc not in table:
            continue
        w = table[vc]
        if near(w, zero):
            violations.append(Violation(vc, w, MONO_ZERO))
            continue
        dimension += 1
        if not near(w, one):
            violations.append(Violation(vc, w, MONO_NOT_ONE))
    is_g_ghz = not any(v.kind == NON_MONO_NONZERO for v in violations)
    return GhzVerdict(not violations, is_g_ghz, dimension, tuple(violations))


def brute_pairings(n: int):
    """Every partition of range(n) into unordered pairs, by direct recursion."""
    def rec(verts):
        if not verts:
            yield []
            return
        a = verts[0]
        for i in range(1, len(verts)):
            b = verts[i]
            rest = verts[1:i] + verts[i + 1:]
            for tail in rec(rest):
                yield [(a, b)] + tail
    if n % 2:
        return
    yield from rec(list(range(n)))


def oracle_colouring_weight(g: Multigraph, vc):
    """Colouring weight by brute force over vertex pairings.

    Sum over pairings of the product, per pair, of the weights of the edges
    on that pair whose half-colours agree with vc at both ends; expanding the
    product enumerates exactly the matchings of the multigraph.
    """
    by_pair: dict[tuple[int, int], object] = {}
    for e in g.edges:
        if e.cu == vc[e.u] and e.cv == vc[e.v]:
            key = (e.u, e.v)
            by_pair[key] = by_pair.get(key, g.zero) + e.weight
    total = g.zero
    for pairing in brute_pairings(g.n):
        prod = g.one
        for (a, b) in pairing:
            prod = prod * by_pair.get((a, b), g.zero)
            if prod == g.zero:
                break
        total = total + prod
    return total


def oracle_graph_weight(g: Multigraph):
    """Graph weight by the same pairing recursion, ignoring colours."""
    by_pair: dict[tuple[int, int], object] = {}
    for e in g.edges:
        key = (e.u, e.v)
        by_pair[key] = by_pair.get(key, g.zero) + e.weight
    total = g.zero
    for pairing in brute_pairings(g.n):
        prod = g.one
        for (a, b) in pairing:
            prod = prod * by_pair.get((a, b), g.zero)
            if prod == g.zero:
                break
        total = total + prod
    return total


def _connected(vertices: list[int], adj: dict[int, set[int]]) -> bool:
    seen = {vertices[0]}
    stack = [vertices[0]]
    members = set(vertices)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in members and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(members)


def oracle_connectivity(g: Multigraph) -> int:
    """Vertex connectivity by subset enumeration (n - 1 for complete graphs)."""
    n = g.n
    if n <= 1:
        return 0
    adj: dict[int, set[int]] = {x: set() for x in range(n)}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    for k in range(0, n - 1):
        for s in itertools.combinations(range(n), k):
            remaining = [v for v in range(n) if v not in s]
            if len(remaining) < 2:
                continue
            if not _connected(remaining, adj):
                return k
    return n - 1
