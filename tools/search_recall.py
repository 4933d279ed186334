"""Measure how often ``search`` finds GHZ assignments known to exist.

Each case is a skeleton that carries a GHZ graph of dimension d, built from
the library's own instances: K4 at d = 2 and 3 (``complete_ghz_k4``, which
also holds an even Hamiltonian cycle), K6 at d = 2 (a 6-cycle inside it),
the octahedron at d = 2 (``octahedron``) and C12 at d = 2 (``cycle_ghz``).
For every case and seed the script builds ``SearchProblem`` on the
skeleton, runs ``search`` with its default budget (20 restarts x 2,000
iterations) and certifies the result with ``exactify``.  Per case it
reports the share of seeds that converged, the share certified in exact
mode, the worst residual over the seeds and the wall time of them all,
build included.  The last line of stdout is one JSON object with every
case.

    python3 tools/search_recall.py                      # every case, seeds 0-4
    python3 tools/search_recall.py --case K4:2 --seed 0 # one case, one seed
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ghzgraphs import build_graph, instances, skeleton  # noqa: E402
from ghzgraphs.search import SearchProblem, exactify, search  # noqa: E402

SKELETONS = {
    "K4": lambda: skeleton(instances.complete_ghz_k4()),
    "K6": lambda: skeleton(build_graph(6, [(u, v, 0, 0, 1) for u in range(6) for v in range(u + 1, 6)])),
    "octahedron": lambda: skeleton(instances.octahedron()),
    "C12": lambda: skeleton(instances.cycle_ghz(12)),
}
CASES = ("K4:2", "K4:3", "K6:2", "octahedron:2", "C12:2")


def measure(name: str, d: int, seeds: list[int]) -> dict:
    """Build, search and certify one skeleton at dimension d, once per seed."""
    start = perf_counter()
    problem = SearchProblem(SKELETONS[name](), d)
    converged = exact = 0
    worst = 0.0
    for seed in seeds:
        result = search(problem, seed=seed)
        certificate = exactify(problem, result.weights)
        converged += result.converged
        exact += certificate.mode == "exact"
        worst = max(worst, result.residual.value)
    return {
        "case": f"{name} d={d}",
        "seeds": seeds,
        "monomials": len(problem.monomials),
        "converged_share": converged / len(seeds),
        "exact_share": exact / len(seeds),
        "worst_residual": worst,
        "wall_s": round(perf_counter() - start, 3),
    }


def parse_case(text: str) -> tuple[str, int]:
    if text not in CASES:
        raise argparse.ArgumentTypeError(f"expected one of {', '.join(CASES)}, got {text!r}")
    name, _, d = text.partition(":")
    return name, int(d)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", type=parse_case, action="append",
                        help=f"one of {', '.join(CASES)}; repeatable (default all)")
    parser.add_argument("--seed", type=int, action="append", help="repeatable (default 0-4)")
    args = parser.parse_args(argv)
    seeds = args.seed or list(range(5))
    results = []
    for name, d in args.case or [parse_case(c) for c in CASES]:
        result = measure(name, d, seeds)
        results.append(result)
        count = len(seeds)
        print(f"{result['case']}: M = {result['monomials']:,}, converged "
              f"{round(result['converged_share'] * count)}/{count}, exact "
              f"{round(result['exact_share'] * count)}/{count}, worst residual "
              f"{result['worst_residual']:.2g}, {result['wall_s']} s", flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
