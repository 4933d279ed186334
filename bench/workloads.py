"""The four workloads as lists of jobs.

A job builds its input afresh on every pass (untimed), so no two jobs and no
two passes share a graph object; a per-graph cache can then only gain from
reuse inside one call.  The timed part is ``call``.  ``check`` returns the
problems it finds in the output, ``digest`` the form compared against the
stored reference for the default seed.

Jobs named ``baseline.*`` are the instances of the ROADMAP baseline table.
Their weights come from fixed seeds, so they are the same for every workload
seed and their reference digests are checked on every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import ghzgraphs as gz

import checks as C
import instances as I

SEARCH_RESTARTS = 3
SEARCH_ITERS = 500


@dataclass
class Job:
    name: str
    make: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    digest: Callable[[Any], dict] | None = None
    expect_error: str | None = None
    #: for search jobs: whether the output reached the tolerance
    converged: Callable[[Any], bool] | None = None
    #: the job runs on passes 0, every, 2 * every, ...
    every: int = 1
    #: the job runs only in traced runs (``--trace 1``), which report its
    #: time; it is too long to repeat in the untraced passes
    trace_only: bool = False


@dataclass(frozen=True)
class ExpectedError:
    """The outcome of a job whose expected result is a domain error."""

    name: str


def graph(instance):
    n, specs, d = instance
    return gz.build_graph(n, specs, colours=range(d))


def fresh(instance):
    return lambda: graph(instance)


def _rng(*tags) -> random.Random:
    return random.Random("-".join(str(t) for t in tags))


def _draw(*tags, seed) -> I.Draw:
    """Shapes and number sizes from the tags alone, values from the tags and
    the workload seed."""
    return I.Draw(_rng(*tags), _rng(*tags, "seed", seed))


# ---------------------------------------------------------------------------
# tables


def verify_job(name, instance, expected=None, every=1, trace_only=False) -> Job:
    return Job(
        name,
        fresh(instance),
        lambda g: gz.verify(g),
        lambda g, v: C.check_verdict(g, v, expected),
        C.digest_verdict,
        every=every,
        trace_only=trace_only,
    )


def table_job(name, instance) -> Job:
    return Job(name, fresh(instance), lambda g: gz.colouring_weight_table(g), C.check_table, C.digest_table)


def lookup_job(name, instance, rng) -> Job:
    n, _, d = instance
    colourings = [(0,) * n, (d - 1,) * n] + [
        tuple(rng.randrange(d) for _ in range(n)) for _ in range(2)
    ]
    return Job(
        name,
        fresh(instance),
        lambda g: [gz.colouring_weight(g, vc) for vc in colourings],
        lambda g, ws: C.check_lookups(g, colourings, ws),
        C.digest_weights,
    )


def tables_jobs(seed: int, workdir=None, run_cli=None) -> list[Job]:
    """Dense K_n with every colour class, sparse ladders and a tail of small
    random multigraphs, exact and float side by side.

    The two baseline verifies take 7 s, more than twice the rest of a pass;
    they run in traced runs only, on every third pass, and their times are
    reported there.  Exact K8 d=2 and float K8 d=3 tables stay in every
    pass through the lookups below."""
    jobs = [
        verify_job("baseline.verify.K8.d2.exact", I.dense(8, 2, True, _draw("roadmap", "K8", 2, seed=0)), every=3,
                   trace_only=True),
        verify_job("baseline.verify.K8.d3.float", I.dense(8, 3, False, _draw("roadmap", "K8", 3, seed=0)), every=3,
                   trace_only=True),
        verify_job("dense.K6.d2.exact.verify", I.dense(6, 2, True, _draw("tables", "K6d2", seed=seed))),
        table_job("dense.K6.d2.exact.table", I.dense(6, 2, True, _draw("tables", "K6d2t", seed=seed))),
        table_job("dense.K6.d3.exact.table", I.dense(6, 3, True, _draw("tables", "K6d3", seed=seed))),
        verify_job("dense.K6.d3.exact.verify", I.dense(6, 3, True, _draw("tables", "K6d3v", seed=seed))),
        verify_job("dense.K8.d2.float.verify", I.dense(8, 2, False, _draw("tables", "K8d2f", seed=seed))),
        lookup_job("dense.K8.d2.exact.lookup", I.dense(8, 2, True, _draw("tables", "K8d2l", seed=seed)),
                   _rng("tables", "shape-vc", "K8d2l")),
        lookup_job("dense.K8.d3.float.lookup", I.dense(8, 3, False, _draw("tables", "K8d3l", seed=seed)),
                   _rng("tables", "shape-vc", "K8d3l")),
        verify_job("ladder.L10.d2.exact.verify", I.ladder(10, 2, True, _draw("tables", "L10", seed=seed))),
        lookup_job("ladder.L10.d2.exact.lookup", I.ladder(10, 2, True, _draw("tables", "L10l", seed=seed)),
                   _rng("tables", "shape-vc", "L10l")),
        table_job("ladder.L10.d2.float.table", I.ladder(10, 2, False, _draw("tables", "L10ft", seed=seed))),
        verify_job("ladder.L12.d2.float.verify", I.ladder(12, 2, False, _draw("tables", "L12f", seed=seed))),
        lookup_job("ladder.L12.d2.exact.lookup", I.ladder(12, 2, True, _draw("tables", "L12l", seed=seed)),
                   _rng("tables", "shape-vc", "L12l")),
    ]
    r = _draw("tables", "planted", seed=seed)
    planted = [
        ("cycle.C6", I.weighted_cycle(range(6), r), {"is_ghz": True, "dimension": 2}),
        ("cycle.C8", I.weighted_cycle(range(8), r), {"is_ghz": True, "dimension": 2}),
        ("cycle.C8.scaled", I.scaled(I.weighted_cycle(range(8), r), r), {"is_g_ghz": True, "dimension": 2}),
        ("k4", I.relabelled(I.complete_ghz_k4(), r), {"is_ghz": True, "dimension": 3}),
        ("k4.scaled", I.scaled(I.complete_ghz_k4(), r), {"is_g_ghz": True, "dimension": 3}),
        ("k2x5", I.parallel_k2(5), {"is_ghz": True, "dimension": 5}),
    ]
    jobs += [verify_job(f"planted.{name}.verify", inst, exp) for name, inst, exp in planted]
    kinds = ("verify", "table", "lookup")
    for i in range(36):
        inst = I.random_multigraph(_draw("tables", "random", i, seed=seed))
        kind = kinds[i % 3]
        name = f"random.{i:02d}.{kind}"
        if kind == "verify":
            jobs.append(verify_job(name, inst))
        elif kind == "table":
            jobs.append(table_job(name, inst))
        else:
            jobs.append(lookup_job(name, inst, _rng("tables", "shape-vc", i)))
    return jobs


# ---------------------------------------------------------------------------
# reduce


def reduce_job(name, instance, expected=None, all_cuts=False) -> Job:
    return Job(
        name,
        fresh(instance),
        lambda g: gz.reduce(g, all_cuts=all_cuts),
        lambda g, report: C.check_reduction(g, report, expected),
        C.digest_report,
    )


def irreducible_job(name, instance) -> Job:
    return Job(
        name,
        fresh(instance),
        lambda g: gz.reduce(g),
        lambda g, out: [] if out == ExpectedError("IrreducibleError") else [f"expected IrreducibleError, got {out}"],
        lambda out: C.digest_value(out.name),
        expect_error="IrreducibleError",
    )


def connectivity_job(name, instance, kappa) -> Job:
    return Job(
        name,
        fresh(instance),
        lambda g: gz.vertex_connectivity(g),
        lambda g, k: [] if k == kappa else [f"connectivity {k}, expected {kappa}"],
        C.digest_value,
    )


def cut_job(name, instance, size) -> Job:
    return Job(
        name,
        fresh(instance),
        lambda g: gz.find_cut(g, size),
        lambda g, cut: C.check_cut(g, cut, size) if cut else ["no cut found on a cycle"],
        C.digest_value,
    )


GHZ2 = (True, 2)


def plain_cycle(n: int):
    """The unit-weight alternating cycle: GHZ of dimension 2."""
    return n, [(u, v, k % 2, k % 2, gz.GaussianRational(1)) for k, (u, v) in enumerate(I.cycle_pairs(n))], 2


def reduce_jobs(seed: int, workdir=None, run_cli=None) -> list[Job]:
    """Cut-structured exact graphs through ``reduce`` with its default checks,
    a few ``all_cuts`` runs, and connectivity and cut search on C40."""
    plain = plain_cycle
    jobs = [
        reduce_job("baseline.reduce.C8", plain(8), GHZ2),
        connectivity_job("baseline.connectivity.C40", plain(40), 2),
    ]
    for i in range(8):
        inst = I.hard_member(_draw("reduce", "hard", i, seed=seed), split=i % 2 == 1)
        jobs.append(reduce_job(f"hard.{i}{'.split' if i % 2 else ''}", inst, GHZ2))
    for n in range(8, 17, 2):
        for k in range(2):
            inst = I.weighted_cycle(range(n), _draw("reduce", "cycle", n, k, seed=seed))
            jobs.append(reduce_job(f"cycle.C{n}.{k}", inst, GHZ2))
    for i in range(30):
        inst = I.planted_cut(_draw("reduce", "planted", i, seed=seed))
        jobs.append(reduce_job(f"planted.{i:02d}", inst))
    for i, name in enumerate(("K6", "octahedron")):
        inst = I.four_connected(name == "octahedron", _draw("reduce", "4conn", i, seed=seed))
        jobs.append(irreducible_job(f"irreducible.{name}", inst))
    for i in range(2):
        inst = I.hard_member(_draw("reduce", "allcuts", i, seed=seed), split=i == 1)
        jobs.append(reduce_job(f"allcuts.hard.{i}", inst, GHZ2, all_cuts=True))
    draw = _draw("reduce", "C40", seed=seed)
    c40 = I.relabelled(I.weighted_cycle(range(40), draw), draw)
    jobs += [
        connectivity_job("c40.connectivity", c40, 2),
        cut_job("c40.cut2", c40, 2),
        cut_job("c40.cut3", c40, 3),
    ]
    return jobs


# ---------------------------------------------------------------------------
# search


def search_job(name, instance, d, search_seed) -> Job:
    def run(g):
        problem = gz.SearchProblem(g, d)
        result = gz.search(problem, seed=search_seed, restarts=SEARCH_RESTARTS, max_iters=SEARCH_ITERS)
        return problem, result, gz.exactify(problem, result.weights)

    return Job(
        name,
        fresh(instance),
        run,
        lambda g, out: C.check_search(*out, d),
        lambda out: C.digest_value(
            (out[1].converged, out[2].verdict.is_ghz, out[2].verdict.dimension)
        ),
        converged=lambda out: out[1].converged,
    )


#: (name, skeleton, d, number of cases, seeds fixed).  C8's and C10's search
#: seeds do not follow the workload seed: their cost per seed ranges over
#: more than 20x at the baseline commit (C8: 8 ms to 0.45 s, C10: 0.08 s to
#: 2.6 s), which would make the timings follow the seed rather than the
#: code.  K6 cases, which do not converge, run the whole budget: three of
#: them (with the baseline one) keep a pass near 4 s.  Seven K4 cases and
#: C8's third, all near 25 ms, hold the middle of the 19 job latencies, so
#: job_p50_ms and job_tail_ms (the 9th of 19) fall among like jobs rather
#: than between two unlike ones.
SEARCH_PAIRS = (
    ("C6", lambda: I.skeleton(I.cycle_pairs(6), 6), 2, 3, False),
    ("C8", lambda: I.skeleton(I.cycle_pairs(8), 8), 2, 3, True),
    ("C10", lambda: I.skeleton(I.cycle_pairs(10), 10), 2, 3, True),
    ("K4", lambda: I.skeleton(I.complete_pairs(4), 4), 3, 7, False),
    ("K6", lambda: I.skeleton(I.complete_pairs(6), 6), 2, 2, False),
)


def search_jobs(seed: int, workdir=None, run_cli=None) -> list[Job]:
    """SearchProblem -> search -> exactify on skeletons with a known GHZ
    assignment, each over search seeds derived from the workload seed, with
    one fixed restart x iteration budget."""
    jobs = [search_job("baseline.search.K6.d2", I.skeleton(I.complete_pairs(6), 6), 2, 0)]
    r = _rng("search", seed)
    for name, skel, d, count, fixed in SEARCH_PAIRS:
        for k in range(count):
            search_seed = k if fixed else r.randrange(2**31)
            jobs.append(search_job(f"{name}.d{d}.{k}", skel(), d, search_seed))
    return jobs


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0


def _doc(instance) -> dict:
    """A version-1 graph document, written without the library's io layer."""
    n, specs, d = instance

    def w(x):
        if isinstance(x, gz.GaussianRational):
            return [str(x.re.numerator), str(x.re.denominator), str(x.im.numerator), str(x.im.denominator)]
        return [repr(x.real), repr(x.imag)]

    return {
        "version": 1,
        "n": n,
        "colour_universe": list(range(d)),
        "edges": [{"u": u, "v": v, "cu": p, "cv": q, "w": w(x)} for u, v, p, q, x in specs],
    }


def _weight(s):
    """A document weight: four decimal strings exact, two float."""
    if len(s) == 4:
        return gz.GaussianRational(Fraction(int(s[0]), int(s[1])), Fraction(int(s[2]), int(s[3])))
    return complex(float(s[0]), float(s[1]))


def parse_doc(obj):
    """The checker's own reading of a graph document, for the oracle."""
    specs = [(e["u"], e["v"], e["cu"], e["cv"], _weight(e["w"])) for e in obj["edges"]]
    return C.OracleGraph(obj["n"], specs, frozenset(obj["colour_universe"]))


def _json(res: CliResult):
    return json.loads(res.stdout.decode())


def _verdict_problems(v: dict, expected: dict) -> list[str]:
    return [f"{k} {v[k]}, expected {want}" for k, want in expected.items() if v[k] != want]


def cli_job(name, argv, code, check, digest, run_cli) -> Job:
    """``check(result)`` runs only when the exit code is the expected one."""
    def checked(_, res: CliResult):
        if res.code != code:
            return [f"exit code {res.code}, expected {code}: {res.stderr.decode()[:200]}"]
        try:
            return check(res)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    return Job(name, lambda: list(argv), run_cli, checked, digest)


def _stdout_digest(res: CliResult) -> dict:
    """Exit code and stdout bytes, for commands whose output is all exact."""
    return {"exact": C.sha(f"{res.code}|{res.stdout.decode()}")}


def cli_jobs(seed: int, workdir: Path, run_cli) -> list[Job]:
    """``python -m ghzgraphs <cmd>`` on small generated documents, including a
    malformed document that must exit 1.  ``run_cli(argv)`` runs one command
    and returns a CliResult."""
    r = _draw("cli", seed=seed)
    insts = {
        "c6": plain_cycle(6),
        "c8w": I.weighted_cycle(range(8), r),
        "k4g": I.scaled(I.complete_ghz_k4(), r),
        "hard8": I.hard_member(r, split=True),
        "dense6": I.dense(6, 2, True, r),
        "c12": I.relabelled(I.weighted_cycle(range(12), r), r),
        "k4skel": I.skeleton(I.complete_pairs(4), 4),
    }
    graphs = {}
    for key, inst in insts.items():
        (workdir / f"{key}.json").write_text(json.dumps(_doc(inst)))
        graphs[key] = C.OracleGraph(inst[0], inst[1], frozenset(range(inst[2])))
    bad = _doc(insts["c8w"])
    k = r.rng.randrange(len(bad["edges"]))
    bad["edges"][k]["w"][1] = "0"
    (workdir / "bad.json").write_text(json.dumps(bad))
    f = lambda key: str(workdir / f"{key}.json")

    def verify_check(expected):
        return lambda res: _verdict_problems(_json(res), expected)

    def dense_verify(res):
        v = _json(res)
        dim = sum(1 for c in range(2) if C.oracle_weight(graphs["dense6"], (c,) * 6) != gz.GaussianRational(0))
        return [] if v["dimension"] == dim and not v["is_ghz"] else ["verdict differs from the oracle"]

    def table_check(res):
        out = _json(res)
        total = gz.GaussianRational(0)
        for row in out["table"]:
            total = total + _weight(row["weight"])
        ref = C.oracle_weight(graphs["dense6"])
        return [] if total == ref == _weight(out["graph_weight"]) else ["table does not sum to the oracle graph weight"]

    vc = (1,) * 4 + (0,) * 4

    def lookup_check(res):
        got = _weight(_json(res)["weight"])
        return [] if got == C.oracle_weight(graphs["c8w"], vc) else ["colouring weight differs from the oracle"]

    def reduce_check(res):
        out = _json(res)
        problems = _verdict_problems(out["input_verdict"], {"is_ghz": True, "dimension": 2})
        reduced = parse_doc(out["graph"])
        if sum(1 for c in range(2) if C.oracle_weight(reduced, (c,) * reduced.n) != gz.GaussianRational(0)) < 2:
            problems.append("reduction lowered the dimension")
        if C.ghz_dimension_by_oracle(parse_doc(out["scaled"]), 2, 1e-8) != 2:
            problems.append("rescaled reduced graph is not GHZ of dimension 2")
        return problems

    def kappa_check(kappa):
        return lambda res: [] if _json(res)["kappa"] == kappa else [f"kappa is not {kappa}"]

    def cut_check(key, size):
        def check(res):
            out = _json(res)
            cut = SimpleNamespace(s=out["s"], v1=out["v1"], v2=out["v2"])
            return C.check_cut(graphs[key], cut, size)
        return check

    def scale_check(res):
        dim = C.ghz_dimension_by_oracle(parse_doc(_json(res)), 3, 1e-8)
        return [] if dim == 3 else ["scaled graph is not GHZ of dimension 3"]

    def search_check(res):
        out = _json(res)
        if not out["converged"]:
            return []
        problems = _verdict_problems(out["verdict"], {"is_ghz": True, "dimension": 3})
        if C.ghz_dimension_by_oracle(parse_doc(out["graph"]), 3, max(out["epsilon"], 1e-6)) != 3:
            problems.append("converged assignment is not GHZ by the oracle")
        return problems

    def malformed_check(res):
        err = json.loads(res.stderr.decode())["error"]
        return [] if err.get("code") == "ZERO_DENOMINATOR" else [f"error code {err.get('code')}"]

    def float_weights(doc) -> list[float]:
        return [x for e in parse_doc(doc).edges for x in (e.weight.real, e.weight.imag)]

    def scale_digest(res):
        return {"exact": C.sha(str(res.code)), "floats": float_weights(_json(res))}

    def reduce_digest(res):
        """The float rescaling within tolerance, everything else exactly."""
        out = _json(res)
        scaled = out.pop("scaled")
        return {"exact": C.sha(f"{res.code}|{C.canonical_json(out)}"), "floats": float_weights(scaled)}

    def search_digest(res):
        out = _json(res)
        return C.digest_value((res.code, out["converged"], out["verdict"]["is_ghz"], out["verdict"]["dimension"]))

    sd = _stdout_digest
    job = partial(cli_job, run_cli=run_cli)
    search_seed = r.rng.randrange(2**31)
    return [
        job("baseline.cli.verify.C6", ["verify", f("c6")], 0, verify_check({"is_ghz": True, "dimension": 2}), sd),
        job("verify.c8w", ["verify", f("c8w")], 0, verify_check({"is_ghz": True, "dimension": 2}), sd),
        job("verify.k4g.g-ghz", ["verify", "--g-ghz", f("k4g")], 0,
                verify_check({"is_g_ghz": True, "dimension": 3}), sd),
        job("verify.dense6", ["verify", f("dense6")], 1, dense_verify, sd),
        job("weights.dense6", ["weights", f("dense6")], 0, table_check, sd),
        job("weights.c8w.colouring", ["weights", f("c8w"), "--colouring", ",".join(map(str, vc))], 0,
                lookup_check, sd),
        job("reduce.hard8", ["reduce", f("hard8")], 0, reduce_check, reduce_digest),
        job("reduce.c8w", ["reduce", f("c8w")], 0, reduce_check, reduce_digest),
        job("connectivity.c12", ["connectivity", f("c12")], 0, kappa_check(2), sd),
        job("connectivity.k4g", ["connectivity", f("k4g")], 0, kappa_check(3), sd),
        job("cut.c12.size2", ["cut", f("c12"), "--size", "2"], 0, cut_check("c12", 2), sd),
        job("cut.hard8.size3", ["cut", f("hard8"), "--size", "3"], 0, cut_check("hard8", 3), sd),
        job("scale.k4g", ["scale", f("k4g")], 0, scale_check, scale_digest),
        job("search.k4.d3", ["search", "--skeleton", f("k4skel"), "--dim", "3", "--seed", str(search_seed),
                                 "--restarts", str(SEARCH_RESTARTS), "--iters", str(SEARCH_ITERS)], 0,
                search_check, search_digest),
        job("malformed.zero-denominator", ["verify", f("bad")], 1, malformed_check, sd),
    ]


WORKLOADS = {
    "tables": tables_jobs,
    "reduce": reduce_jobs,
    "search": search_jobs,
    "cli": cli_jobs,
}
