"""Measure the search layer's build and memory on complete skeletons.

For each case, K_n at dimension d, the script starts one fresh Python
process, one case at a time, which builds ``SearchProblem`` on the complete
skeleton K_n and then runs one evaluation and one gradient at a seeded
random point.  It reports the monomial count M, the build's wall time, the
process's maximum resident set size (``ru_maxrss``) after the imports,
after the build and after the evaluation and gradient, and the evaluation
and gradient's wall time.  A fresh process per case keeps one case's peak
out of the next one's numbers.  The last line of stdout is one JSON object
with every case.

    python3 tools/search_layer.py                  # K8 at d = 3 and K10 at d = 2
    python3 tools/search_layer.py --case 6:2       # K6 at d = 2 only

K10 at d = 2 (M = 967,680) peaks near 0.45 GB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CASES = ("8:3", "10:2")


def measure(n: int, d: int) -> dict:
    """One case, in this process: build, then one evaluation and gradient."""
    import resource
    from time import perf_counter

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from ghzgraphs import Edge, Multigraph
    from ghzgraphs.search import SearchProblem, _evaluate, _gradient

    def max_rss_mib() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    edges = tuple(Edge(u, v, 0, 0, 1) for u in range(n) for v in range(u + 1, n))
    skeleton = Multigraph(n, edges, frozenset({0}))
    rss_imports = max_rss_mib()
    start = perf_counter()
    problem = SearchProblem(skeleton, d)
    build_s = perf_counter() - start
    rss_build = max_rss_mib()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(problem.n_vars) + 1j * rng.standard_normal(problem.n_vars)
    start = perf_counter()
    factors, diff, _ = _evaluate(problem, x)
    _gradient(problem, factors, diff)
    step_s = perf_counter() - start
    return {
        "case": f"K{n} d={d}",
        "monomials": len(problem.monomials),
        "build_s": round(build_s, 4),
        "max_rss_mib_after_imports": round(rss_imports, 1),
        "max_rss_mib_after_build": round(rss_build, 1),
        "evaluate_gradient_s": round(step_s, 4),
        "max_rss_mib_after_evaluate_gradient": round(max_rss_mib(), 1),
    }


def parse_case(text: str) -> tuple[int, int]:
    n, _, d = text.partition(":")
    try:
        n, d = int(n), int(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n:d, got {text!r}") from None
    if n < 0 or n % 2 or d < 1:
        raise argparse.ArgumentTypeError(f"expected an even n >= 0 and d >= 1, got {text!r}")
    return n, d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", type=parse_case, action="append",
                        help="n:d, K_n at dimension d; repeatable (default 8:3 and 10:2)")
    parser.add_argument("--child", type=parse_case, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.child)))
        return 0

    results = []
    for n, d in args.case or [parse_case(c) for c in DEFAULT_CASES]:
        command = [sys.executable, str(Path(__file__).resolve()), "--child", f"{n}:{d}"]
        out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        results.append(result)
        print(f"{result['case']}: M = {result['monomials']:,}, build {result['build_s']} s, "
              f"evaluation + gradient {result['evaluate_gradient_s']} s; max RSS "
              f"{result['max_rss_mib_after_imports']} MiB after imports, "
              f"{result['max_rss_mib_after_build']} after the build, "
              f"{result['max_rss_mib_after_evaluate_gradient']} after the evaluation and gradient",
              flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
