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

Arguments are read by ``parse_args`` from one table, ``COMMANDS``.  It
reads the common form itself: the command first; each option by its full
name, as ``--opt value``, ``--opt=value`` or a bare flag, before or after
the file; at most one file; no file or value that starts with ``-``; every
required argument present, and every value accepted by its reader.  Any
other argv -- help, a usage error, an option's prefix, ``--``, a value that
starts with ``-`` -- goes to argparse, imported only then, with a parser
built from the same table, so its rules and wording are argparse's own.
That parser reads a token matching ``-\\.?\\d`` as a command's value, so
``--epsilon -1e-3`` reaches the library, which refuses it.  A usage error
exits 2, and ``-h`` or ``--help`` prints help to stdout and exits 0.  The
common form does not load argparse, whose import and first parser cost more
than the parse itself.

Library names are read at call time as ``gz.<name>``, through the package's
lazy table, so a command loads only the submodules it uses: ``verify``,
``dimension``, ``scale`` and ``bogdanov`` load ``ghz``; ``weights`` and
``filter`` load ``matchings``; ``mcg``, ``connectivity`` and ``cut`` load
``structure`` (and with it ``matchings``); ``reduce`` loads ``reduction``
and with it ``ghz`` and ``structure``; and ``search`` loads ``search``,
and with it ``structure`` and numpy, only once its skeleton has loaded, so
a bad document fails fast.  Importing this module loads ``io`` (for
``weight_to_strings``, which the package does not re-export) and what
``io`` imports.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


_int.__name__ = "int"  # argparse names a refused value's reader by it: "invalid int value"


def _parse_colouring(text: str) -> tuple[int, ...]:
    """The colours of a comma-separated list; the library checks them against the graph."""
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
        return {
            "colouring": list(vc),
            "weight": weight_to_strings(gz.colouring_weight(g, vc)),
            "feasible": gz.is_feasible(g, vc),
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


# ghz.DEFAULT_EPSILON written out, and pinned to it by a test, so that the
# commands that never call ghz do not load it to read its default
_EPSILON = ("--epsilon", "epsilon", float, 1e-9, False, "")

#: command -> (handler, one-line help, options).  An option is (name, dest,
#: reader, default, required, help), with reader ``None`` for a flag.  Every
#: command takes its document as the positional ``file`` unless an option
#: stores to ``file``, as ``search``'s ``--skeleton`` does.
COMMANDS = {
    "verify": (_cmd_verify, "check the GHZ / g-GHZ property", (
        ("--g-ghz", "g_ghz", None, False, False, "gate on the generalized property (default: strict)"),
        _EPSILON,
    )),
    "dimension": (_cmd_dimension, "number of non-zero monochromatic colourings", (_EPSILON,)),
    "weights": (_cmd_weights, "colouring-weight table, or one colouring's weight", (
        ("--colouring", "colouring", str, None, False, "comma-separated colours, one per vertex"),
    )),
    "filter": (_cmd_filter, "keep edges matching a vertex colouring", (
        ("--colouring", "colouring", str, None, True, ""),
    )),
    "mcg": (_cmd_mcg, "drop edges lying in no perfect matching", ()),
    "merge": (_cmd_merge, "merge parallel edges of equal colour class", ()),
    "drop-zeros": (_cmd_drop_zeros, "drop edges of weight exactly zero", ()),
    "connectivity": (_cmd_connectivity, "vertex connectivity of the skeleton", ()),
    "cut": (_cmd_cut, "find a small vertex cut", (("--size", "size", _int, 3, False, ""),)),
    "reduce": (_cmd_reduce, "reduce across a 3-cut with an odd block", (
        ("--all-cuts", "all_cuts", None, False, False,
         "scan the odd cuts for the smallest result, stopping once the best has "
         "4 vertices and 2k edges (k: the dimension of a g-GHZ input, else 0)"),
        ("--no-check", "no_check", None, False, False, "skip the runtime identity checks"),
    )),
    "scale": (_cmd_scale, "rescale a g-GHZ graph to a strict GHZ one", (_EPSILON,)),
    "bogdanov": (_cmd_bogdanov, "find a non-monochromatic perfect matching", ()),
    "search": (_cmd_search, "search for a GHZ assignment on a skeleton", (
        ("--skeleton", "file", str, None, True, ""),
        ("--dim", "dim", _int, None, True, ""),
        ("--seed", "seed", _int, 0, False, ""),
        ("--restarts", "restarts", _int, 20, False, ""),
        ("--iters", "iters", _int, 2000, False, ""),
        ("--tol", "tol", float, 1e-10, False, ""),
    )),
}


def _argparse_parse(argv: list):
    """``argv`` read by argparse, from a parser built on ``COMMANDS``: help,
    usage errors and every form ``parse_args`` does not read itself follow
    argparse's own rules and wording.  argparse is imported only here."""
    import argparse

    def formatter(prog):  # usage on one line, whatever the terminal's width
        return argparse.HelpFormatter(prog, width=1 << 30)

    parser = argparse.ArgumentParser(
        prog="ghzgraphs",
        description="Exact analysis of edge-coloured weighted multigraphs via perfect matchings.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text, description=text, formatter_class=formatter)
        # a negative number in exponent form ("-1e-3") is a value, not an
        # option name, so it reaches the library, which refuses it
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(func=handler)
        if all(option[1] != "file" for option in options):
            p.add_argument("file", help="the graph document")
        for name, dest, reader, default, required, help_text in options:
            if reader is None:
                p.add_argument(name, dest=dest, action="store_true", help=help_text)
            else:
                p.add_argument(name, dest=dest, type=reader, default=default, required=required,
                               metavar=name[2:].upper(), help=help_text)
    return parser.parse_args(argv)


def _common_form(argv: list) -> dict | None:
    """The attributes of an argv in the common form the module docstring
    states, or None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, options = COMMANDS[argv[0]]
    by_name = {option[0]: option for option in options}
    if all(option[1] != "file" for option in options):
        by_name[None] = (None, "file", str, None, True, "")  # the positional file
    values = {"command": argv[0], "func": handler, "file": None}
    values.update((option[1], option[3]) for option in options)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        # a token that does not start with "-" is the file, read as an "=" value
        name, eq, value = token.partition("=") if token[:1] == "-" else (None, "=", token)
        if name not in by_name or name is None and "file" in seen:
            return None
        _, dest, reader, _, _, _ = by_name[name]
        if reader is None:
            if eq:
                return None
            values[dest] = True
        else:
            if not eq:
                value = next(tokens, "-")  # a missing value counts as one starting with "-"
            if value[:1] == "-":
                return None
            try:
                values[dest] = reader(value)
            except ValueError:
                return None
        seen.add(dest)
    return values if all(option[1] in seen for option in by_name.values() if option[4]) else None


def parse_args(argv=None):
    """The attributes the handlers read, from ``argv`` (default
    ``sys.argv[1:]``): ``command``, ``func``, ``file`` and each option's
    dest.  A usage error exits 2, and ``-h`` or ``--help`` exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    values = _common_form(argv)
    return _argparse_parse(argv) if values is None else SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # a handler returns the object to print; verify returns its exit code too
        result = args.func(gz.load_graph(args.file), args)
        obj, status = result if args.command == "verify" else (result, 0)
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        return status
    except (gz.GhzGraphError, ValueError, OSError, RecursionError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        for field in ("code", "path"):  # a DocumentError's both, a ConnectivityBoundError's code
            value = getattr(exc, field, None)
            if value is not None:
                payload["error"][field] = value
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
