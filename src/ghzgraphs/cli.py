"""Command-line interface.

Every subcommand reads one graph document, named by the positional ``file``
(``search`` names its skeleton with ``--skeleton``), and ``main`` is the one
path through all of them: it loads the document once, calls the command's
handler on the graph and the parsed arguments, and prints the JSON object
the handler returns to stdout.  It exits 0 on success, 1 on a domain error
(bad document, non-GHZ input where GHZ is required, a failed verify gate,
...) and 2 on a usage error.  ``verify``, the one gated command, returns its
exit code beside its object, and ``main`` reads that pair for ``verify``
alone; every other handler returns only its object.  Error details go to
stderr as JSON, a failed write to stdout included.  Output is deterministic:
repeated runs on the same input are byte-identical.

Library names are read at call time as ``gz.<name>``, through the package's
lazy table, so a command loads only the submodules it uses: every command
loads ``ghz`` (``build_parser`` reads its default epsilon), ``mcg``,
``connectivity`` and ``cut`` load ``structure``, ``reduce`` loads
``reduction`` and with it ``structure``, and ``search`` loads ``search``
and with it numpy only once its skeleton has loaded, so a bad document
fails fast.  Importing this module loads ``io`` (for ``weight_to_strings``,
which the package does not re-export) and what ``io`` imports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import ghzgraphs as gz

from .io import weight_to_strings


def _verdict_json(verdict: gz.GhzVerdict) -> dict:
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


def _int(text: str) -> int:
    """An integer option value or colour, written as a graph document writes
    one: ASCII digits after an optional minus sign, nothing else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _parse_colouring(text: str) -> tuple[int, ...]:
    """The colours of a comma-separated list; ``filter_graph`` checks them."""
    try:
        return tuple(_int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"colouring must be comma-separated integers, got {text!r}")


def _cmd_verify(g, args) -> tuple[dict, int]:
    verdict = gz.verify(g, args.epsilon)
    ok = verdict.is_g_ghz if args.g_ghz else verdict.is_ghz
    return _verdict_json(verdict), 0 if ok else 1


def _cmd_dimension(g, args) -> dict:
    return {"dimension": gz.dimension(g, args.epsilon)}


def _cmd_weights(g, args) -> dict:
    if args.colouring is not None:
        vc = _parse_colouring(args.colouring)
        table = gz.colouring_weight_table(gz.filter_graph(g, vc))
        return {
            "colouring": list(vc),
            "weight": weight_to_strings(table.get(vc, g.zero)),
            "feasible": bool(table),
        }
    table = gz.colouring_weight_table(g)
    return {
        "graph_weight": weight_to_strings(gz.graph_weight(g)),
        "table": [
            {"colouring": list(vc), "weight": weight_to_strings(w)}
            for vc, w in table.items()
        ],
    }


def _cmd_filter(g, args) -> dict:
    return gz.graph_to_document(gz.filter_graph(g, _parse_colouring(args.colouring)))


def _cmd_mcg(g, args) -> dict:
    return gz.graph_to_document(gz.mcg(g))


def _cmd_merge(g, args) -> dict:
    return gz.graph_to_document(gz.merge_parallel_edges(g))


def _cmd_drop_zeros(g, args) -> dict:
    return gz.graph_to_document(gz.drop_zero_edges(g))


def _cmd_connectivity(g, args) -> dict:
    return {"kappa": gz.vertex_connectivity(g)}


def _cmd_cut(g, args) -> dict | str:
    cut = gz.find_cut(g, args.size)
    return _cut_json(cut) if cut is not None else "none"


def _report_json(report) -> dict:
    cls = report.classification
    return {
        "case": report.case,
        "kappa": report.kappa,
        "mu_bound": report.mu_bound,
        "cut": _cut_json(report.cut),
        "classification": {"c1": sorted(cls.c1), "c2": sorted(cls.c2)},
        "vertex_map": [list(x) if isinstance(x, tuple) else x for x in report.vertex_map],
        "graph": gz.graph_to_document(report.graph),
        "scaled": gz.graph_to_document(report.scaled) if report.scaled else None,
        "input_verdict": _verdict_json(report.input_verdict),
        "output_verdict": _verdict_json(report.output_verdict),
    }


def _cmd_reduce(g, args) -> dict:
    return _report_json(gz.reduce(g, all_cuts=args.all_cuts, check=not args.no_check))


def _cmd_scale(g, args) -> dict:
    return gz.graph_to_document(gz.scale_to_ghz(g, args.epsilon))


def _cmd_bogdanov(g, args) -> dict:
    witness = gz.find_bogdanov_witness(g)
    return {"matching": list(witness), "colouring": list(gz.induced_colouring(g, witness))}


def _cmd_search(g, args) -> dict:
    problem = gz.SearchProblem(g, args.dim)
    result = gz.search(
        problem,
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.iters,
        tol=args.tol,
    )
    certified = gz.exactify(problem, result.weights)
    return {
        "residual": result.residual.value,
        "converged": result.converged,
        "restart": result.restart,
        "iterations": result.iterations,
        "mode": certified.mode,
        "epsilon": certified.epsilon,
        "verdict": _verdict_json(certified.verdict),
        "graph": gz.graph_to_document(certified.graph),
    }


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a handler returns the object to print; verify returns its exit code too
        result = args.func(gz.load_graph(args.file), args)
        obj, status = result if args.command == "verify" else (result, 0)
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        return status
    except (gz.GhzGraphError, ValueError, OSError, RecursionError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = getattr(exc, "code", None)
        if code is not None:
            payload["error"]["code"] = code
            payload["error"]["path"] = exc.path
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
