"""Command-line interface.

Every subcommand reads a graph document, prints a JSON result to stdout and
exits 0 on success, 1 on a domain error (bad document, non-GHZ input where
GHZ is required, a failed verify gate, ...) and 2 on a usage error.  Error
details go to stderr as JSON.  Output is deterministic: repeated runs on
the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import GhzGraphError
from .ghz import (
    DEFAULT_EPSILON,
    GhzVerdict,
    dimension,
    find_bogdanov_witness,
    scale_to_ghz,
    verify,
)
from .graphs import drop_zero_edges, merge_parallel_edges
from .io import graph_to_document, load_graph, weight_to_strings
from .matchings import colouring_weight_table, filter_graph, graph_weight, induced_colouring

# Handlers import what only they use: `mcg`, `connectivity` and `cut` import
# `structure`, `reduce` imports `reduction` (and with it `structure`), and
# `search` reads its skeleton, then imports `search` and with it numpy.  The
# other commands start without loading any of them.


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _verdict_json(verdict: GhzVerdict) -> dict:
    return {
        "is_ghz": verdict.is_ghz,
        "is_g_ghz": verdict.is_g_ghz,
        "dimension": verdict.dimension,
        "violations": [
            {
                "colouring": list(v.colouring),
                "weight": weight_to_strings(v.weight),
                "kind": v.kind,
            }
            for v in verdict.violations
        ],
    }


def _cut_json(cut) -> dict:
    return {"s": list(cut.s), "v1": list(cut.v1), "v2": list(cut.v2), "parity": cut.parity}


def _parse_colouring(text: str) -> tuple[int, ...]:
    """The colours of a comma-separated list; ``filter_graph`` checks them."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"colouring must be comma-separated integers, got {text!r}")


def _cmd_verify(args) -> int:
    g = load_graph(args.file)
    verdict = verify(g, args.epsilon)
    _print(_verdict_json(verdict))
    ok = verdict.is_g_ghz if args.g_ghz else verdict.is_ghz
    return 0 if ok else 1


def _cmd_dimension(args) -> int:
    g = load_graph(args.file)
    _print({"dimension": dimension(g, args.epsilon)})
    return 0


def _cmd_weights(args) -> int:
    g = load_graph(args.file)
    if args.colouring is not None:
        vc = _parse_colouring(args.colouring)
        table = colouring_weight_table(filter_graph(g, vc))
        _print(
            {
                "colouring": list(vc),
                "weight": weight_to_strings(table.get(vc, g.zero)),
                "feasible": bool(table),
            }
        )
        return 0
    table = colouring_weight_table(g)
    _print(
        {
            "graph_weight": weight_to_strings(graph_weight(g)),
            "table": [
                {"colouring": list(vc), "weight": weight_to_strings(w)}
                for vc, w in table.items()
            ],
        }
    )
    return 0


def _cmd_filter(args) -> int:
    g = load_graph(args.file)
    vc = _parse_colouring(args.colouring)
    _print(graph_to_document(filter_graph(g, vc)))
    return 0


def _cmd_mcg(args) -> int:
    from .structure import mcg

    _print(graph_to_document(mcg(load_graph(args.file))))
    return 0


def _cmd_merge(args) -> int:
    _print(graph_to_document(merge_parallel_edges(load_graph(args.file))))
    return 0


def _cmd_drop_zeros(args) -> int:
    _print(graph_to_document(drop_zero_edges(load_graph(args.file))))
    return 0


def _cmd_connectivity(args) -> int:
    from .structure import vertex_connectivity

    _print({"kappa": vertex_connectivity(load_graph(args.file))})
    return 0


def _cmd_cut(args) -> int:
    from .structure import find_cut

    cut = find_cut(load_graph(args.file), args.size)
    _print(_cut_json(cut) if cut is not None else "none")
    return 0


def _report_json(report) -> dict:
    cls = report.classification
    return {
        "case": report.case,
        "kappa": report.kappa,
        "mu_bound": report.mu_bound,
        "cut": _cut_json(report.cut),
        "classification": {"c1": sorted(cls.c1), "c2": sorted(cls.c2)},
        "vertex_map": [list(x) if isinstance(x, tuple) else x for x in report.vertex_map],
        "graph": graph_to_document(report.graph),
        "scaled": graph_to_document(report.scaled) if report.scaled else None,
        "input_verdict": _verdict_json(report.input_verdict),
        "output_verdict": _verdict_json(report.output_verdict),
    }


def _cmd_reduce(args) -> int:
    from .reduction import reduce

    g = load_graph(args.file)
    report = reduce(g, all_cuts=args.all_cuts, check=not args.no_check)
    _print(_report_json(report))
    return 0


def _cmd_scale(args) -> int:
    g = load_graph(args.file)
    _print(graph_to_document(scale_to_ghz(g, args.epsilon)))
    return 0


def _cmd_bogdanov(args) -> int:
    g = load_graph(args.file)
    witness = find_bogdanov_witness(g)
    _print({"matching": list(witness), "colouring": list(induced_colouring(g, witness))})
    return 0


def _cmd_search(args) -> int:
    g = load_graph(args.skeleton)  # before numpy loads, so a bad document fails fast
    from .search import SearchProblem, exactify, search

    problem = SearchProblem(g, args.dim)
    result = search(
        problem,
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.iters,
        tol=args.tol,
    )
    certified = exactify(problem, result.weights)
    _print(
        {
            "residual": result.residual.value,
            "converged": result.converged,
            "restart": result.restart,
            "iterations": result.iterations,
            "mode": certified.mode,
            "epsilon": certified.epsilon,
            "verdict": _verdict_json(certified.verdict),
            "graph": graph_to_document(certified.graph),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzgraphs",
        description="Exact analysis of edge-coloured weighted multigraphs via perfect matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        # a negative number in exponent form ("-1e-3") is an option's value,
        # not an option name, as in later CPython releases
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(func=func)
        return p

    p = add("verify", _cmd_verify, "check the GHZ / g-GHZ property")
    p.add_argument("file")
    p.add_argument("--g-ghz", action="store_true", help="gate on the generalized property (default: strict)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = add("dimension", _cmd_dimension, "number of non-zero monochromatic colourings")
    p.add_argument("file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = add("weights", _cmd_weights, "colouring-weight table, or one colouring's weight")
    p.add_argument("file")
    p.add_argument("--colouring", help="comma-separated colours, one per vertex")

    p = add("filter", _cmd_filter, "keep edges matching a vertex colouring")
    p.add_argument("file")
    p.add_argument("--colouring", required=True)

    p = add("mcg", _cmd_mcg, "drop edges lying in no perfect matching")
    p.add_argument("file")

    p = add("merge", _cmd_merge, "merge parallel edges of equal colour class")
    p.add_argument("file")

    p = add("drop-zeros", _cmd_drop_zeros, "drop edges of weight exactly zero")
    p.add_argument("file")

    p = add("connectivity", _cmd_connectivity, "vertex connectivity of the skeleton")
    p.add_argument("file")

    p = add("cut", _cmd_cut, "find a small vertex cut")
    p.add_argument("file")
    p.add_argument("--size", type=int, default=3)

    p = add("reduce", _cmd_reduce, "reduce across a 3-cut with an odd block")
    p.add_argument("file")
    p.add_argument("--all-cuts", action="store_true",
                   help="scan the odd cuts for the smallest result, stopping once the best has "
                        "4 vertices and 2k edges (k: the dimension of a g-GHZ input, else 0)")
    p.add_argument("--no-check", action="store_true", help="skip the runtime identity checks")

    p = add("scale", _cmd_scale, "rescale a g-GHZ graph to a strict GHZ one")
    p.add_argument("file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p = add("bogdanov", _cmd_bogdanov, "find a non-monochromatic perfect matching")
    p.add_argument("file")

    p = add("search", _cmd_search, "search for a GHZ assignment on a skeleton")
    p.add_argument("--skeleton", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GhzGraphError, ValueError, OSError, RecursionError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = getattr(exc, "code", None)
        if code is not None:
            payload["error"]["code"] = code
            payload["error"]["path"] = exc.path
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
