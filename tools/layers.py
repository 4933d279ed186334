"""Time each layer of the library on fixed, seeded instances, one named row each.

Every row runs in a fresh Python process of its own, so no row's heap or
peak memory reaches another's, and prints one JSON object with a digest of
what it computed, so two versions can be compared for identical output as
well as for speed.  The rows:

- ``arith.add``, ``arith.mul``: Gaussian-rational ``+`` and ``*`` over
  1,000 fixed operand pairs, best of 20, so ``ms_best`` reads as
  microseconds per operation.
- ``replay.reduce``, ``replay.tables``: the weight kernel's calls in one
  seed-1 pass of that benchmark workload.  The row builds the workload's
  jobs from ``bench/workloads.py`` (read only, as the benchmark builds
  them), runs those an untraced pass runs once with the private kernel
  ``matchings._weight_table`` wrapped so that every call's graph and masks
  are recorded, and replays the recorded calls 7 times on the unwrapped
  kernel.  It reports the number of calls, how many returned no entry, one
  entry or more, the best and median microseconds per call, and one digest
  of every returned table (keys, key order, each value's type and exact
  parts).
- ``reduce.check``, ``reduce.nocheck``: the ``reduce`` calls of one seed-1
  ``reduce`` pass, recorded the same way, made again on fresh copies of
  their graphs (copied untimed) with ``check=True`` and ``check=False``;
  the best of 15 passes.
- ``verify.exact.K<n>.d<d>``, ``verify.float.K<n>.d<d>``, ``mcg.K8.d3`` and
  ``connectivity.C40``: the ROADMAP baseline rows, graph build included.
  K_n at d joins every vertex pair by all d² colour classes, with weights
  a/b + c/d·i, |a|, |c| ≤ 5 and b, d ≤ 4, drawn from a seed named after the
  graph; a float graph has the same weights as complex floats.  C40 is the
  cycle of 40 colour-0 edges of weight 1, given as the integer 1.  Best of a fixed count per row.
- ``search.K<n>.d<d>``: ``SearchProblem`` built on the complete skeleton
  K_n at dimension d, one evaluation and gradient at a seeded random
  point, then from the same point one warm-up descent and one timed
  descent of 5 iterations at tolerance 0, so that no iteration is skipped
  for having converged.  It reports the monomial count, the build's and
  the evaluation and gradient's wall time, the descent's iterations and
  milliseconds per iteration, and the process's maximum resident set size
  (``ru_maxrss``) after the imports, the build, the evaluation and
  gradient and the descents.  K10 at d = 2 (967,680 monomials) peaks near
  0.45 GB.

With ``--against DIR`` each selected row runs ``--rounds`` times on each
side, in alternated child processes: the library comes from ``DIR/src`` on
the parent side and from this tree's ``src`` on the change side, and this
tool and ``bench/`` from this tree on both.  Round r runs the parent first
when r is even.  Per row it reports both medians of the row's timing, the
parent's interquartile spread, in how many rounds the change read lower
(ties count for neither) and whether every digest of both sides agrees.

The last line of stdout is one JSON object with every row.

    python3 tools/layers.py                             # every row, once
    python3 tools/layers.py --row replay.reduce --row search.K6.d2
    python3 tools/layers.py --against ../parent --rounds 10
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def digest(text: str) -> str:
    import hashlib  # loaded late: its libcrypto would add some 3.6 MiB to the search rows' RSS

    return hashlib.sha256(text.encode()).hexdigest()


def timed(run, repeats: int, make=lambda: None):
    """The seconds of each of ``repeats`` calls ``run(make())``, ``make``
    untimed, and the last call's output."""
    times = []
    for _ in range(repeats):
        arg = make()
        gc.collect()
        start = perf_counter()
        out = run(arg)
        times.append(perf_counter() - start)
    return times, out


def best_ms(run, repeats: int, make=lambda: None) -> dict:
    times, out = timed(run, repeats, make)
    return {"repeats": repeats, "ms_best": round(min(times) * 1e3, 4), "digest": digest(repr(out))}


def record(workload: str, modules: tuple, name: str) -> list:
    """The (args, kwargs) of every call of ``name``, as each of ``modules``
    binds it, in one untraced seed-1 pass of the workload's jobs."""
    import workloads

    original = getattr(modules[0], name)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for module in modules:
        setattr(module, name, recording)
    try:
        for job in [job for job in getattr(workloads, f"{workload}_jobs")(1) if not job.trace_only]:
            try:
                job.call(job.make())
            except (workloads.gz.GhzGraphError, ValueError):
                if job.expect_error is None:
                    raise
    finally:
        for module in modules:
            setattr(module, name, original)
    return calls


def replay(workload: str) -> dict:
    import ghzgraphs.reduction
    import ghzgraphs.structure
    from ghzgraphs import GaussianRational, matchings

    # reduction and structure import the kernel by name; matchings calls its own global
    calls = record(workload, (matchings, ghzgraphs.reduction, ghzgraphs.structure), "_weight_table")
    kernel = matchings._weight_table
    tables = [kernel(*args, **kwargs) for args, kwargs in calls]
    parts = lambda w: w._v if isinstance(w, GaussianRational) else (w.real.hex(), w.imag.hex())  # noqa: E731
    text = "".join("".join(repr((vc, type(w).__name__, parts(w))) for vc, w in t.items()) + "|" for t in tables)

    def run(_):
        for args, kwargs in calls:
            kernel(*args, **kwargs)

    per_call = [t / len(calls) * 1e6 for t in timed(run, 7)[0]]
    sizes = [len(t) for t in tables]
    return {"seed": 1, "calls": len(calls), "empty": sizes.count(0), "one_entry": sizes.count(1),
            "more": sum(s > 1 for s in sizes), "entries": sum(sizes), "repeats": len(per_call),
            "us_per_call_best": round(min(per_call), 3), "us_per_call_median": round(statistics.median(per_call), 3),
            "digest": digest(text)}


def reduce_pass(check: bool) -> dict:
    import ghzgraphs

    reduce = ghzgraphs.reduce
    calls = record("reduce", (ghzgraphs,), "reduce")

    def run(graphs):
        out = []
        for g, (_, kwargs) in zip(graphs, calls):
            try:
                out.append(reduce(g, check=check, **kwargs))
            except ghzgraphs.GhzGraphError as e:
                out.append(e)
        return out

    return {"calls": len(calls), **best_ms(run, 15, lambda: [copy.copy(args[0]) for args, _ in calls])}


def gaussian(r: random.Random):
    """a/b + c/d·i with |a|, |c| <= 5 and b, d <= 4."""
    from ghzgraphs import GaussianRational

    return GaussianRational(Fraction(r.randint(-5, 5), r.randint(1, 4)), Fraction(r.randint(-5, 5), r.randint(1, 4)))


def complete(n: int, d: int, exact: bool):
    r = random.Random(f"K{n}.d{d}")
    specs = [(u, v, p, q, gaussian(r)) for u, v in combinations(range(n), 2) for p in range(d) for q in range(d)]
    return n, [s if exact else (*s[:4], complex(s[4])) for s in specs], d


def cycle(n: int):
    return n, [(k, (k + 1) % n, 0, 0, 1) for k in range(n)], 1


def graph_row(function: str, instance, params: tuple, repeats: int) -> dict:
    """``function`` on the graph ``instance(*params)`` describes, the build timed too."""
    import ghzgraphs

    call, build = getattr(ghzgraphs, function), ghzgraphs.build_graph
    n, specs, d = instance(*params)
    return best_ms(lambda _: call(build(n, specs, range(d))), repeats)


def arithmetic(op: str) -> dict:
    r = random.Random("arithmetic")
    pairs = [(gaussian(r), gaussian(r)) for _ in range(1000)]
    return best_ms((lambda _: [a + b for a, b in pairs]) if op == "+" else (lambda _: [a * b for a, b in pairs]), 20)


def search_layer(n: int, d: int) -> dict:
    import resource

    import numpy as np

    from ghzgraphs import Edge, Multigraph
    from ghzgraphs.search import SearchProblem, _descend, _evaluate, _gradient

    rss = lambda: round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)  # noqa: E731; KiB on Linux
    skeleton = Multigraph(n, [Edge(u, v, 0, 0, 1) for u, v in combinations(range(n), 2)], {0})
    out = {"case": f"K{n} d={d}", "max_rss_mib_after_imports": rss()}
    t = perf_counter()
    problem = SearchProblem(skeleton, d)
    out.update(build_s=round(perf_counter() - t, 4), monomials=len(problem.monomials), max_rss_mib_after_build=rss())
    rng = np.random.default_rng(0)
    x = rng.standard_normal(problem.n_vars) + 1j * rng.standard_normal(problem.n_vars)
    t = perf_counter()
    buffers, diff, _ = _evaluate(problem, x)
    _gradient(problem, buffers, diff)
    out.update(evaluate_gradient_s=round(perf_counter() - t, 4), max_rss_mib_after_evaluate_gradient=rss())
    del buffers  # each descent allocates its own
    _descend(problem, x, 5, 0.0)
    t = perf_counter()
    end, f, iters = _descend(problem, x, 5, 0.0)
    out.update(descent_iterations=iters, descent_ms_per_iteration=round(1e3 * (perf_counter() - t) / iters, 3))
    return {**out, "max_rss_mib_after_descent": rss(), "digest": digest(repr((end.tobytes(), f)))}


#: name -> (the timing --against compares, the row's function, its arguments)
ROWS = {
    "arith.add": ("ms_best", arithmetic, "+"),
    "arith.mul": ("ms_best", arithmetic, "*"),
    "replay.reduce": ("us_per_call_best", replay, "reduce"),
    "replay.tables": ("us_per_call_best", replay, "tables"),
    "reduce.check": ("ms_best", reduce_pass, True),
    "reduce.nocheck": ("ms_best", reduce_pass, False),
    **{f"verify.{'exact' if e else 'float'}.K{n}.d{d}": ("ms_best", graph_row, "verify", complete, (n, d, e), k)
       for e, n, d, k in ((1, 6, 2, 50), (1, 8, 2, 20), (1, 6, 3, 20), (1, 8, 3, 5), (0, 8, 2, 20), (0, 8, 3, 7),
                          (0, 10, 3, 3))},
    "mcg.K8.d3": ("ms_best", graph_row, "mcg", complete, (8, 3, True), 20),
    "connectivity.C40": ("ms_best", graph_row, "vertex_connectivity", cycle, (40,), 200),
    **{f"search.K{n}.d{d}": ("descent_ms_per_iteration", search_layer, n, d)
       for n, d in ((4, 2), (4, 3), (6, 2), (8, 3), (10, 2))},
}


def child(src: Path, name: str) -> dict:
    """One row, run in a fresh process on the library in ``src``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(src), "--row", name]
    return json.loads(subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()[-1])


def compare(key: str, runs: dict) -> dict:
    """Both sides' medians of ``key``, the parent's interquartile spread,
    the change's wins and whether every digest agrees."""
    parent, change = ([run[key] for run in runs[side]] for side in ("parent", "change"))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {"key": key, "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4), "parent_iqr": round(q3 - q1, 4),
            "change_wins": sum(c < p for p, c in zip(parent, change)), "rounds": len(parent),
            "digests_agree": len({run["digest"] for side in runs.values() for run in side}) == 1,
            "parent": parent, "change": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--row", action="append", choices=ROWS, help="a row to run; repeatable (default every row)")
    parser.add_argument("--against", type=Path, metavar="DIR", help="alternate rounds with the library in DIR/src")
    parser.add_argument("--rounds", type=int, default=10, help="rounds per side with --against (default 10)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    rows = args.row or list(ROWS)
    if args.child:
        sys.path[:0] = [args.child, str(ROOT / "bench")]
        _, function, *params = ROWS[rows[0]]
        print(json.dumps(function(*params)))
        return 0
    if args.against and args.rounds < 2:
        parser.error("--rounds must be at least 2")

    results = {}
    for name in rows:
        if args.against:
            runs = {"parent": [], "change": []}
            for r in range(args.rounds):
                for side in sorted(runs, reverse=r % 2 == 0):
                    runs[side].append(child(args.against / "src" if side == "parent" else ROOT / "src", name))
            results[name] = compare(ROWS[name][0], runs)
        else:
            results[name] = child(ROOT / "src", name)
        shown = (f"{k} {v}" for k, v in results[name].items() if k not in ("parent", "change"))
        print(f"{name}: " + ", ".join(shown), flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
