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

Arguments are read by ``parse_args`` from one table, ``COMMANDS``, with the
rules argparse applied before it: the file may come before or after the
options; an option's value is the next token or follows ``=``
(``--size=2``); a unique prefix names a long option (``--eps``) and an
ambiguous one is refused; ``--`` ends the options; a token matching
``-\\.?\\d`` is a value, so ``--epsilon -1e-3`` reaches the library, which
refuses it; the last of a repeated option counts; and ``-h`` or ``--help``,
before the command or after it, prints help to stdout and exits 0.  A usage
error exits 2 with a usage line and ``ghzgraphs[ <command>]: error:
<message>`` on stderr, in argparse's wording.  Nothing here imports
argparse, whose import and first parser cost more than the parse itself.

Library names are read at call time as ``gz.<name>``, through the package's
lazy table, so a command loads only the submodules it uses: ``verify``,
``dimension``, ``scale`` and ``bogdanov`` load ``ghz``; ``weights`` and
``filter`` load ``matchings``; ``mcg``, ``connectivity`` and ``cut`` load
``structure`` (and with it ``matchings``); ``reduce`` loads ``reduction``
and with it ``ghz`` and ``structure``; and ``search`` loads ``search`` and
with it numpy only once its skeleton has loaded, so a bad document fails
fast.  Importing this module loads ``io`` (for ``weight_to_strings``, which
the package does not re-export) and what ``io`` imports.
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

#: a token matching this is a value wherever a command's option could start,
#: so ``--epsilon -1e-3`` reaches the library, which refuses it; before the
#: command, where a value is the command, only "-1" and "-.5" are values
_VALUE = re.compile(r"-\.?\d")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _takes_file(options) -> bool:
    return all(option[1] != "file" for option in options)


def _shown(name: str, reader) -> str:
    """An option as usage and help show it: ``--size SIZE``, or a flag's name."""
    return name if reader is None else f"{name} {name[2:].upper()}"


def _usage(command) -> str:
    if command is None:
        return f"ghzgraphs [-h] {{{','.join(COMMANDS)}}} ..."
    options = COMMANDS[command][2]
    parts = ["ghzgraphs", command, "[-h]"]
    for name, _, reader, _, required, _ in options:
        part = _shown(name, reader)
        parts.append(part if required else f"[{part}]")
    if _takes_file(options):
        parts.append("file")
    return " ".join(parts)


def _help(command) -> str:
    if command is None:
        head = "Exact analysis of edge-coloured weighted multigraphs via perfect matchings.\n\ncommands:"
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    else:
        _, head, options = COMMANDS[command]
        head += "\n\narguments:"
        rows = [("file", "the graph document")] if _takes_file(options) else []
        rows.append(("-h, --help", "show this help message and exit"))
        rows += [(_shown(name, reader), text) for name, _, reader, _, _, text in options]
    width = max(len(left) for left, _ in rows)
    body = "".join(f"\n  {left:<{width}}  {text}".rstrip() for left, text in rows)
    return f"usage: {_usage(command)}\n\n{head}{body}\n"


def _fail(command, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = "ghzgraphs" if command is None else f"ghzgraphs {command}"
    sys.stderr.write(f"usage: {_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read(token: str, names, command, number=_VALUE) -> tuple:
    """(option name, its ``=`` value or None) for a token that names one of
    ``names`` (long options, ``--help`` first) by itself or by a unique
    prefix, or names ``-h``; (None, token) for a value; (token, None) for an
    unknown option.  The caller handles ``--``."""
    if token[:1] != "-" or token == "-" or number.match(token):
        return None, token
    if token[1] == "-":
        name, eq, value = token.partition("=")
        found = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(found) == 1:
            return found[0], value if eq else None
        if found:
            _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
    elif token[1] == "h":  # the one short option; "-hX" gives it the value X
        return "--help", token[2:] or None
    return (None, token) if " " in token else (token, None)


def _help_exit(command, value):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _parse_command(command: str, tokens: list) -> tuple:
    """The command's attributes, and the tokens it does not read."""
    handler, _, options = COMMANDS[command]
    by_name = {option[0]: option for option in options}
    takes_file = _takes_file(options)
    values = {"command": command, "func": handler, "file": None}
    values.update((option[1], option[3]) for option in options)
    # every token is read before any option acts, so an ambiguous prefix is
    # refused even after -h; after "--" every token is a value
    items = []
    for k, token in enumerate(tokens):
        if token == "--":
            items.append(("--", None))
            items += [(None, rest) for rest in tokens[k + 1:]]
            break
        items.append(_read(token, ("--help", *by_name), command))
    seen, extras, i = set(), [], 0
    while i < len(items):
        name, value = items[i]
        i += 1
        option = by_name.get(name)
        if option is None:
            if name == "--help":
                _help_exit(command, value)
            if takes_file and "file" not in seen and name in (None, "--"):
                # the file is this value, or the one after this "--"; a "--"
                # just after it goes with it, and every other "--" is extra
                k = i if name == "--" else i - 1
                if k < len(items) and items[k][0] is None:
                    values["file"] = items[k][1]
                    seen.add("file")
                    i = k + 2 if k + 1 < len(items) and items[k + 1][0] == "--" else k + 1
                    continue
            extras.append(value if name is None else name)
            continue
        _, dest, reader, _, _, _ = option
        if reader is not None and value is None:  # the value is the next token
            if i == len(items) or items[i][0] is not None:
                _fail(command, f"argument {name}: expected one argument")
            value = items[i][1]
            i += 1
        if reader is None:
            if value is not None:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            values[dest] = True
        else:
            try:
                values[dest] = reader(value)
            except ValueError:  # argparse's wording, which names _int "int"
                _fail(command, f"argument {name}: invalid {reader.__name__.lstrip('_')} value: {value!r}")
        seen.add(dest)
    missing = ["file"] if takes_file and "file" not in seen else []
    missing += [option[0] for option in options if option[4] and option[1] not in seen]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values), extras


def parse_args(argv=None) -> SimpleNamespace:
    """The attributes the handlers read, from ``argv`` (default
    ``sys.argv[1:]``): ``command``, ``func``, ``file`` and each option's
    dest.  A usage error exits 2, and ``-h`` or ``--help`` exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = []
    for i, token in enumerate(argv):
        name, value = (None, token) if token == "--" else _read(token, ("--help",), None, _NUMBER)
        if name is None:
            break
        if name == "--help":
            _help_exit(None, value)
        extras.append(token)
    else:
        _fail(None, "the following arguments are required: command")
    if token not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
    args, more = _parse_command(token, argv[i + 1:])
    if extras or more:
        _fail(None, f"unrecognized arguments: {' '.join(extras + more)}")
    return args


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
        code = getattr(exc, "code", None)
        if code is not None:
            payload["error"]["code"] = code
            payload["error"]["path"] = exc.path
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
