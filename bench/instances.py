"""Seeded instance generators for the benchmark.

Every generator returns plain data -- a vertex count, a list of
(u, v, cu, cv, weight) edge specs and a colour count -- so that each job can
build its own fresh ``Multigraph`` from it on every pass.  All randomness
comes from ``random.Random`` seeded with strings, which is stable across
processes and Python versions.

Generators take a ``Draw``: its ``shape`` generator, seeded independently
of the workload seed, fixes the vertices, edges, colours and the size of
every exact weight; its ``rng``, seeded by the workload seed, picks the
signs of exact weights, the float weights and labels.  The work a graph
costs follows its shape and the sizes of its exact numbers, so the seed
changes the values while the work stays the same.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from dataclasses import dataclass

from ghzgraphs import GaussianRational


@dataclass(frozen=True)
class Draw:
    shape: random.Random
    rng: random.Random

    def exact(self) -> GaussianRational:
        """A non-zero Gaussian rational: numerator sizes, denominators and
        whether it has an imaginary part from ``shape``, signs from ``rng``."""
        re = Fraction(self.shape.randint(1, 3) * self.rng.choice((1, -1)), self.shape.randint(1, 3))
        im = Fraction(0)
        if self.shape.random() < 0.4:
            im = Fraction(self.shape.randint(1, 2) * self.rng.choice((1, -1)), self.shape.randint(1, 2))
        return GaussianRational(re, im)

    def unit_disc(self) -> complex:
        """A float weight uniform on the unit disc, never exactly 0."""
        return cmath.rect(math.sqrt(self.rng.random()) or 0.5, 2.0 * math.pi * self.rng.random())

    def weight(self, exact: bool):
        return self.exact() if exact else self.unit_disc()


def all_classes(pairs, d: int, draw: Draw, exact: bool) -> list[tuple]:
    """Every ordered colour class (p, q) on every vertex pair."""
    return [(u, v, p, q, draw.weight(exact)) for u, v in pairs for p in range(d) for q in range(d)]


def complete_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def ladder_pairs(n: int) -> list[tuple[int, int]]:
    """The 2 x (n/2) ladder: two paths joined by rungs."""
    k = n // 2
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return rails + [(i, k + i) for i in range(k)]


def cycle_pairs(n: int) -> list[tuple[int, int]]:
    return [(k, (k + 1) % n) for k in range(n)]


def dense(n: int, d: int, exact: bool, draw: Draw):
    """K_n carrying every colour class, with random weights."""
    return n, all_classes(complete_pairs(n), d, draw, exact), d


def ladder(n: int, d: int, exact: bool, draw: Draw):
    """A ladder carrying every colour class: many colourings, few matchings each."""
    return n, all_classes(ladder_pairs(n), d, draw, exact), d


def random_multigraph(draw: Draw):
    """A planted perfect matching plus 12 to 36 random edges on 6 or 8
    vertices and at most 3 colours."""
    shape = draw.shape
    n = shape.choice([6, 8, 8])
    d = shape.randint(1, 3)
    perm = shape.sample(range(n), n)
    pairs = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
    pairs += [tuple(shape.sample(range(n), 2)) for _ in range(shape.randint(12, 36))]
    return n, [(u, v, shape.randrange(d), shape.randrange(d), draw.exact()) for u, v in pairs], d


def weighted_cycle(order, draw: Draw):
    """A two-coloured cycle through ``order`` whose two colour classes each
    multiply to 1: a GHZ graph of dimension 2."""
    n = len(order)
    ws = [draw.exact() for _ in range(n)]
    for colour in (0, 1):
        prod = GaussianRational(1)
        for w in ws[colour:n - 2:2]:
            prod = prod * w
        ws[n - 2 + colour] = GaussianRational(1) / prod
    specs = [(order[k], order[(k + 1) % n], k % 2, k % 2, ws[k]) for k in range(n)]
    return n, specs, 2


def scaled(instance, draw: Draw):
    """Multiply each edge weight by s_cu * s_cv: a g-GHZ graph when the input
    is GHZ, with the same dimension."""
    n, specs, d = instance
    s = [draw.exact() for _ in range(d)]
    return n, [(u, v, p, q, w * s[p] * s[q]) for u, v, p, q, w in specs], d


def complete_ghz_k4():
    """K4 whose three perfect matchings carry colours 0, 1, 2: GHZ, dimension 3."""
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    specs = [(u, v, c, c, GaussianRational(1)) for c, pm in enumerate(pairings) for u, v in pm]
    return 4, specs, 3


def parallel_k2(t: int):
    """Two vertices joined by t edges of distinct colours: GHZ, dimension t."""
    return 2, [(0, 1, c, c, GaussianRational(1)) for c in range(t)], t


HARD_ORDER = (0, 3, 6, 7, 4, 1, 2, 5)  # 8-cycle; the cut {3,4,5} isolates {0,1,2}


def hard_member(draw: Draw, split: bool):
    """Eight-vertex GHZ cycle whose cut {3,4,5} puts colour 0 in C1 (the hard
    case).  With ``split`` one edge is torn into two parallel edges of the
    same colour class that sum to the original weight."""
    n, specs, d = weighted_cycle(HARD_ORDER, draw)
    if split:
        k = draw.shape.randrange(len(specs))
        u, v, p, q, w = specs[k]
        a = draw.exact()
        while a == w:
            a = draw.exact()
        specs = specs[:k] + [(u, v, p, q, a)] + specs[k + 1:] + [(u, v, p, q, w - a)]
    return n, specs, d


def planted_cut(draw: Draw):
    """A graph with a planted 3-cut [V1 | S | V2], |V1| odd, with a type-i
    perfect matching and (for |V1| = 3) a type-0 one, plus random chaff."""
    shape = draw.shape
    n1 = shape.choice([1, 1, 3])
    n2 = shape.choice([2, 4]) if n1 == 1 else 2
    n = n1 + 3 + n2
    d = shape.randint(1, 3) if n <= 6 else shape.randint(1, 2)
    v1 = list(range(n1))
    s = list(range(n1, n1 + 3))
    v2 = list(range(n1 + 3, n))

    def edge(u, v):
        return (u, v, shape.randrange(d), shape.randrange(d), draw.exact())

    u1, u2, u3 = s
    first = shape.choice(v1)
    specs = [edge(u1, first)]
    left = [x for x in v1 if x != first]
    shape.shuffle(left)
    specs += [edge(left[i], left[i + 1]) for i in range(0, len(left), 2)]
    if n2 == 2:
        specs += [edge(u2, u3), edge(v2[0], v2[1])]
    else:
        specs += [edge(u2, v2[0]), edge(u3, v2[1]), edge(v2[2], v2[3])]
    if n1 == 3:
        order = v1[:]
        shape.shuffle(order)
        specs += [edge(ui, x) for ui, x in zip(s, order)] + [edge(v2[0], v2[1])]
    for _ in range(shape.randint(0, 4)):
        specs.append(edge(*shape.sample(v1 + s, 2)))
    for _ in range(shape.randint(0, 4)):
        specs.append(edge(*shape.sample(v2 + s, 2)))
    return n, specs, d


def four_connected(octahedron: bool, draw: Draw):
    """A single-colour graph with no vertex cut of size 3 (K6 or the
    octahedron K_{2,2,2}): reduction must refuse it as irreducible."""
    pairs = complete_pairs(6)
    if octahedron:
        pairs = [p for p in pairs if p not in {(0, 3), (1, 4), (2, 5)}]
    return 6, [(u, v, 0, 0, draw.exact()) for u, v in pairs], 1


def skeleton(pairs, n: int):
    """An uncoloured unit-weight simple graph, as ``search`` expects."""
    return n, [(u, v, 0, 0, GaussianRational(1)) for u, v in pairs], 1


def relabelled(instance, draw: Draw):
    """The same graph with its vertices permuted at random."""
    n, specs, d = instance
    perm = list(range(n))
    draw.rng.shuffle(perm)
    return n, [(perm[u], perm[v], p, q, w) for u, v, p, q, w in specs], d
