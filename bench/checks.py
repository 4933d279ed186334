"""Output checks: an independent pairing oracle, per-kind checks and digests.

The oracle expands the colouring weight as a sum over pairings of the vertex
set, multiplying per pair the summed weights of the edges whose half-colours
agree with the colouring.  It shares no code with ``ghzgraphs.matchings``; it
only reads graph fields and uses ``GaussianRational`` arithmetic.

Each check returns a list of problems; an empty list means the output passed.
Exact values are compared exactly.  Float values are compared within
``FLOAT_RTOL`` relative to max(1, |reference|), never bytewise.
"""

from __future__ import annotations

import hashlib
import json

from ghzgraphs import GaussianRational

FLOAT_RTOL = 1e-9
#: verify's default tolerance on float graphs, restated so the checks do not
#: depend on the library's constant
VERIFY_EPSILON = 1e-9


def is_exact(g) -> bool:
    return all(isinstance(e.weight, GaussianRational) for e in g.edges)


def zero_of(g):
    return GaussianRational(0) if is_exact(g) else 0j


def pair_sums(g, vc=None) -> dict:
    """Summed edge weight per vertex pair, keeping only edges that agree with
    the colouring ``vc`` at both ends (all edges when ``vc`` is None)."""
    out: dict = {}
    zero = zero_of(g)
    for e in g.edges:
        if vc is None or (e.cu == vc[e.u] and e.cv == vc[e.v]):
            key = (e.u, e.v)
            out[key] = out.get(key, zero) + e.weight
    return out


def pairing_sum(n: int, by_pair: dict, zero, one):
    """Sum over every partition of range(n) into pairs of the product of
    ``by_pair`` over its pairs; a pair missing from ``by_pair`` weighs 0."""
    if n % 2:
        return zero

    def rec(rest: tuple):
        if not rest:
            return one
        a = rest[0]
        total = zero
        for i in range(1, len(rest)):
            w = by_pair.get((a, rest[i]))
            if w is not None:
                total = total + w * rec(rest[1:i] + rest[i + 1:])
        return total

    return rec(tuple(range(n)))


def oracle_weight(g, vc=None):
    """Colouring weight of ``vc`` (graph weight when None) by pairing expansion."""
    exact = is_exact(g)
    zero, one = (GaussianRational(0), GaussianRational(1)) if exact else (0j, 1 + 0j)
    return pairing_sum(g.n, pair_sums(g, vc), zero, one)


def same(a, b) -> bool:
    """Exact equality for Gaussian rationals, relative tolerance for floats."""
    if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
        return a == b
    a, b = complex(a), complex(b)
    return abs(a - b) <= FLOAT_RTOL * max(1.0, abs(b))


def near(w, target, exact: bool, eps: float) -> bool:
    return w == target if exact else abs(complex(w) - target) <= eps


def _sample(items: list, k: int) -> list:
    """Up to k items spread evenly over the list (first and last included)."""
    if len(items) <= k:
        return list(items)
    step = (len(items) - 1) / (k - 1)
    return [items[round(i * step)] for i in range(k)]


# ---------------------------------------------------------------------------
# checks per kind of output


def check_verdict(g, verdict, expected=None, eps: float = VERIFY_EPSILON) -> list[str]:
    """Dimension and mono violations from the oracle, a sample of the other
    violations re-weighed, flags consistent with the violation list, and the
    planted verdict fields that ``expected`` names."""
    problems = []
    exact = is_exact(g)
    one = GaussianRational(1) if exact else 1 + 0j
    zero = zero_of(g)
    dim = 0
    mono_bad = 0
    for c in sorted(g.colour_universe):
        w = oracle_weight(g, (c,) * g.n)
        if near(w, zero, exact, eps):
            continue
        dim += 1
        if not near(w, one, exact, eps):
            mono_bad += 1
    if verdict.dimension != dim:
        problems.append(f"dimension {verdict.dimension}, oracle says {dim}")
    kinds = [v.kind for v in verdict.violations]
    if kinds.count("mono_not_one") != mono_bad:
        problems.append(f"{kinds.count('mono_not_one')} mono_not_one violations, oracle says {mono_bad}")
    if verdict.is_ghz != (not verdict.violations):
        problems.append("is_ghz disagrees with the violation list")
    if verdict.is_g_ghz != ("non_mono_nonzero" not in kinds):
        problems.append("is_g_ghz disagrees with the violation list")
    for v in _sample(list(verdict.violations), 3):
        if not same(v.weight, oracle_weight(g, v.colouring)):
            problems.append(f"violation weight at {v.colouring} differs from the oracle")
        if (len(set(v.colouring)) <= 1) != v.kind.startswith("mono"):
            problems.append(f"violation kind {v.kind} at {v.colouring}")
    for key, want in (expected or {}).items():
        if getattr(verdict, key) != want:
            problems.append(f"planted {key} {want}, got {getattr(verdict, key)}")
    return problems


def check_table(g, table) -> list[str]:
    """Values sum to the oracle graph weight, sampled entries match the
    oracle, and a colouring missing from the table weighs 0."""
    problems = []
    total = zero_of(g)
    for vc, w in table.items():
        if len(vc) != g.n or any(c not in g.colour_universe for c in vc):
            return [f"malformed table key {vc}"]
        total = total + w
    if not same(total, oracle_weight(g)):
        problems.append("table does not sum to the oracle graph weight")
    keys = list(table)
    for vc in _sample(keys, 3):
        if not same(table[vc], oracle_weight(g, vc)):
            problems.append(f"table entry {vc} differs from the oracle")
    colours = sorted(g.colour_universe)
    for k in range(len(colours) ** g.n if colours else 0):
        vc = tuple(colours[(k // len(colours) ** i) % len(colours)] for i in range(g.n))
        if vc not in table:
            if not same(oracle_weight(g, vc), zero_of(g)):
                problems.append(f"colouring {vc} is missing but the oracle weighs it non-zero")
            break
    return problems


def check_lookups(g, colourings, weights) -> list[str]:
    return [
        f"colouring weight at {vc} differs from the oracle"
        for vc, w in zip(colourings, weights)
        if not same(w, oracle_weight(g, vc))
    ]


def ghz_dimension_by_oracle(g, d: int, eps: float):
    """The dimension if every non-mono colouring weighs 0 and every mono one
    1 or 0 (0 when infeasible or cancelling, which verify tolerates only when
    infeasible), by oracle; None otherwise."""
    exact = is_exact(g)
    one = GaussianRational(1) if exact else 1 + 0j
    zero = zero_of(g)
    dim = 0
    for k in range(d ** g.n):
        vc = tuple((k // d ** i) % d for i in range(g.n))
        w = oracle_weight(g, vc)
        if near(w, zero, exact, eps):
            continue
        if len(set(vc)) > 1 or not near(w, one, exact, eps):
            return None
        dim += 1
    return dim


def check_search(problem, result, certified, d: int) -> list[str]:
    """A converged search must re-verify as GHZ of dimension d."""
    problems = []
    if result.converged:
        if not (certified.verdict.is_ghz and certified.verdict.dimension == d):
            problems.append("converged search did not certify as GHZ of dimension d")
        eps = max(certified.epsilon, 1e-6)
        if ghz_dimension_by_oracle(certified.graph, d, eps) != d:
            problems.append("converged assignment is not GHZ by the oracle")
    if len(result.weights) != problem.n_vars:
        problems.append("weight vector has the wrong length")
    return problems


def check_cut(g, cut, size: int) -> list[str]:
    """A cut partitions the vertices, has the requested size and no edge
    joins its two blocks."""
    if cut is None:
        return []
    s, v1, v2 = set(cut.s), set(cut.v1), set(cut.v2)
    problems = []
    if len(s) != size or not v1 or not v2 or s | v1 | v2 != set(range(g.n)):
        problems.append("cut is not a partition with the requested size")
    if len(s) + len(v1) + len(v2) != g.n:
        problems.append("cut blocks overlap")
    if any((e.u in v1 and e.v in v2) or (e.u in v2 and e.v in v1) for e in g.edges):
        problems.append("an edge crosses the cut")
    return problems


def _induced(g, vertices):
    kept = sorted(vertices)
    pos = {v: i for i, v in enumerate(kept)}
    specs = [
        (pos[e.u], pos[e.v], e.cu, e.cv, e.weight)
        for e in g.edges
        if e.u in pos and e.v in pos
    ]
    return kept, specs


class OracleGraph:
    """Just enough of a graph for the oracle, built without the library:
    n, colour_universe and edges with u < v."""

    def __init__(self, n, specs, universe):
        self.n = n
        self.colour_universe = universe
        self.edges = [_Edge(*s) for s in specs]


class _Edge:
    __slots__ = ("u", "v", "cu", "cv", "weight")

    def __init__(self, u, v, cu, cv, weight):
        if u > v:
            u, v, cu, cv = v, u, cv, cu
        self.u, self.v, self.cu, self.cv, self.weight = u, v, cu, cv, weight


def check_reduction(g, report, expected=None) -> list[str]:
    """Structural sanity, the planted input verdict, the reduction's sum
    identity on two colourings, and -- for g-GHZ input -- g-GHZ kept,
    dimension not lowered and a GHZ rescaling, all by oracle."""
    problems = []
    iv = report.input_verdict
    if expected is not None and (iv.is_ghz, iv.dimension) != expected:
        problems.append(f"planted input verdict {expected}, got {(iv.is_ghz, iv.dimension)}")
    if report.case == "connectivity-bound":
        if report.kappa > 2 or report.mu_bound != 2:
            problems.append("connectivity bound reported without kappa <= 2")
        return problems
    cut, cls, r = report.cut, report.classification, report.graph
    problems += check_cut(g, cut, 3)
    if len(cut.v1) % 2 == 0:
        problems.append("reduction cut has an even first block")
    easy = report.case == "easy"
    if easy != (not cls.c1):
        problems.append(f"case {report.case} disagrees with C1 = {sorted(cls.c1)}")
    if r.n != (4 if easy else len(cut.v1) + 3):
        problems.append(f"reduced graph has {r.n} vertices")
    problems += _check_identity(g, report)
    if iv.is_g_ghz:
        d = len(g.colour_universe)
        zero = GaussianRational(0)
        dim = 0
        for c in range(d):
            if oracle_weight(r, (c,) * r.n) != zero:
                dim += 1
        for k in range(d ** r.n):
            vc = tuple((k // d ** i) % d for i in range(r.n))
            if len(set(vc)) > 1 and oracle_weight(r, vc) != zero:
                problems.append("reduction broke the g-GHZ property")
                break
        if dim < iv.dimension:
            problems.append(f"reduction lowered the dimension {iv.dimension} -> {dim}")
        if report.scaled is None or ghz_dimension_by_oracle(report.scaled, d, 1e-8) != dim:
            problems.append("rescaled reduced graph is not GHZ of the reduced dimension")
    return problems


def _check_identity(g, report) -> list[str]:
    """w'(vc') = sum_c f_c * w(vc'(c)) on the first and last colourings of the
    reduced graph, where vc'(c) paints V2 in c and f_c is 1 (easy case, or
    c in C2) or 1 / (|C1| * W(c on V2)) (c in C1)."""
    cut, cls, r = report.cut, report.classification, report.graph
    universe = sorted(g.colour_universe)
    zero = GaussianRational(0)
    v2_kept, v2_specs = _induced(g, cut.v2)
    v2_graph = OracleGraph(len(v2_kept), v2_specs, g.colour_universe)
    problems = []
    for vc_r in ((universe[0],) * r.n, (universe[-1],) * (r.n - 1) + (universe[0],)):
        total = zero
        for c in universe:
            vc = [c] * g.n
            if report.case == "easy":
                for x in cut.v1:
                    vc[x] = vc_r[0]
                for i, u in enumerate(cut.s, start=1):
                    vc[u] = vc_r[i]
            else:
                for orig, colour in zip(report.vertex_map, vc_r):
                    vc[orig] = colour
            w = oracle_weight(g, tuple(vc))
            if c in cls.c1:
                w = w / oracle_weight(v2_graph, (c,) * v2_graph.n) / len(cls.c1)
            total = total + w
        if oracle_weight(r, vc_r) != total:
            problems.append(f"reduction identity fails at {vc_r}")
    return problems


# ---------------------------------------------------------------------------
# digests: an exact part compared for equality and a float part compared
# within FLOAT_RTOL


def _w(w) -> str:
    return str(w) if isinstance(w, GaussianRational) else repr(complex(w))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def digest_verdict(v) -> dict:
    if all(isinstance(x.weight, GaussianRational) for x in v.violations):
        body = ";".join(f"{x.colouring}:{_w(x.weight)}:{x.kind}" for x in v.violations)
        return {"exact": sha(f"{v.is_ghz}|{v.is_g_ghz}|{v.dimension}|{body}")}
    ws = [complex(x.weight) for x in v.violations]
    return {
        "exact": sha(f"{v.is_ghz}|{v.is_g_ghz}|{v.dimension}|{len(ws)}"),
        "floats": _summary(ws),
    }


def _summary(ws) -> list[float]:
    return [sum(w.real for w in ws), sum(w.imag for w in ws), sum(abs(w) ** 2 for w in ws)]


def digest_table(table) -> dict:
    if all(isinstance(w, GaussianRational) for w in table.values()):
        return {"exact": sha(";".join(f"{vc}:{_w(w)}" for vc, w in table.items()))}
    return {
        "exact": sha(";".join(str(vc) for vc in table)),
        "floats": _summary([complex(w) for w in table.values()]),
    }


def digest_weights(weights) -> dict:
    if all(isinstance(w, GaussianRational) for w in weights):
        return {"exact": sha(";".join(_w(w) for w in weights))}
    return {"floats": [x for w in weights for x in (complex(w).real, complex(w).imag)]}


def digest_report(report) -> dict:
    cls = report.classification
    parts = [
        report.case,
        report.kappa,
        report.mu_bound,
        report.cut,
        (sorted(cls.c1), sorted(cls.c2)) if cls else None,
        report.vertex_map,
        [(e.u, e.v, e.cu, e.cv, _w(e.weight)) for e in report.graph.edges] if report.graph else None,
        digest_verdict(report.input_verdict),
        digest_verdict(report.output_verdict) if report.output_verdict else None,
    ]
    out = {"exact": sha(repr(parts))}
    if report.scaled is not None:
        out["floats"] = [x for e in report.scaled.edges for x in (e.weight.real, e.weight.imag)]
    return out


def digest_value(value) -> dict:
    return {"exact": sha(repr(value))}


def compare_digest(got: dict, ref: dict) -> list[str]:
    problems = []
    if got.get("exact") != ref.get("exact"):
        problems.append("exact output differs from the reference digest")
    gf, rf = got.get("floats"), ref.get("floats")
    if (gf is None) != (rf is None) or (gf is not None and (
        len(gf) != len(rf) or any(abs(a - b) > FLOAT_RTOL * max(1.0, abs(b)) for a, b in zip(gf, rf))
    )):
        problems.append("float output differs from the reference beyond tolerance")
    return problems


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)
